"""Potentialist systems, Kripke evaluation, frames, schemas, translation."""
import gc
import weakref

import pytest

from finarith import modal
from finarith.core import SubsetWorld, make_subset_world, make_truncation
from finarith.corpus import load_packaged_formulas, load_packaged_pairs
from finarith.errors import DomainError, EvalError
from finarith.logic import (
    Const0, Eq, Necessarily, Possibly, eval_formula, parse_formula, print_formula,
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

    def test_world_count_budget(self):
        with pytest.raises(DomainError):
            arbitrary_set_system(20)

    def test_ad_hoc_loader_validates_preorder(self):
        worlds = [SubsetWorld({0}), SubsetWorld({0, 1})]
        with pytest.raises(ValueError):
            load_system(worlds, ["a", "b"], [(0, 0), (0, 1)])  # b not reflexive

    def test_ad_hoc_loader_validates_extension(self):
        worlds = [SubsetWorld({0, 3}), SubsetWorld({0, 1})]
        with pytest.raises(ValueError):
            load_system(
                worlds, ["a", "b"], [(0, 0), (1, 1), (0, 1)]
            )  # 3 is lost along 0 -> 1

    def test_resolve(self, ari30):
        assert ari30.resolve("10") == 9
        assert ari30.resolve(9) == 9
        with pytest.raises(DomainError):
            ari30.resolve("31")


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

    def test_decide_names_the_first_deciding_world(self, ari30):
        assert ari30.decide("3", parse_formula("dia E x. x = 1 + 1 + 1 + 1 + 1")) == (True, 4)
        assert ari30.decide("3", parse_formula("box !(E x. x = 1 + 1 + 1 + 1 + 1)")) == (False, 4)
        assert ari30.decide("3", parse_formula("box Def(1)")) == (True, None)
        assert ari30.decide("3", parse_formula("Def(1)")) == (True, None)

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


class TestSchemas:
    def test_schema_lookup(self):
        assert schema_by_name("dot3").name == "Dot3"
        assert schema_by_name("K").arity == 2
        with pytest.raises(EvalError):
            schema_by_name("Five")

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

    def test_open_instance_rejected(self, sub1):
        with pytest.raises(EvalError):
            check_schema(sub1, SCHEMAS["T"], [(parse_formula("x = 0"), None)])

    def test_second_pass_is_answered_from_the_memo(self, monkeypatch):
        # One memo per system: a repeated check evaluates each instance once
        # per world at top level and finds every dia/box body memoized.
        system = arbitrary_set_system(2)
        pairs = load_packaged_pairs("schema_instances.fml")
        first = check_schema(system, SCHEMAS["Dot3"], pairs)
        real = modal._eval
        calls = []

        def counting(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(modal, "_eval", counting)
        assert check_schema(system, SCHEMAS["Dot3"], pairs) == first
        assert len(calls) == len(pairs) * len(system.worlds)
        assert not any(isinstance(f, (Possibly, Necessarily)) for f in calls)


class TestDot3Search:
    def test_finds_witness_on_arbitrary_set(self, sub1):
        witness = search_dot3_counterexample(sub1)
        assert witness is not None
        assert witness.world_id == "empty"

    def test_absent_on_linear_system(self):
        assert search_dot3_counterexample(aristotelian_system(10), generator_budget=600) is None

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

    def test_requires_limit(self):
        with pytest.raises(EvalError):
            check_translation_theorem(fork_system(), [parse_formula("E x. x = x")])

    def test_corpus_is_checked_before_any_evaluation(self, monkeypatch):
        calls = []
        real = PotentialistSystem.decide

        def counting(self, *args):
            calls.append(args)
            return real(self, *args)

        monkeypatch.setattr(PotentialistSystem, "decide", counting)
        corpus = [parse_formula("E x. x = 1"), parse_formula("x = 1")]
        with pytest.raises(EvalError, match="not closed: x = 1"):
            check_translation_theorem(aristotelian_system(3), corpus)
        assert calls == []

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

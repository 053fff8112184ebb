"""Truncation models, subset worlds, and the FA axiom checks."""
import itertools
import math
import random

import pytest

from finarith.core import (
    SubsetWorld, Truncation, check_fa_axioms, largest_square_base,
    make_subset_world, make_truncation, sample_elements,
)
from finarith.corpus import load_packaged_formulas, load_packaged_pairs
from finarith.errors import DomainError, EvalError
from finarith.interp import Tower, build_plus_model, build_tower, check_bounded_induction
from finarith.logic import parse_formula
from finarith.modal import (
    SCHEMAS, aristotelian_system, check_schema, check_translation_theorem, fork_system,
)


@pytest.fixture(scope="module")
def induction_corpus():
    return load_packaged_formulas("induction20.fml")


class LoopingSuccessor(Truncation):
    # 1 + 1 = 1: counting up from 0 never leaves {0, 1}.
    def _plus(self, a, b):
        return 1 if (a, b) == (1, 1) else super()._plus(a, b)


class CountingTruncation(Truncation):
    """Counts the order and arithmetic queries made of it."""

    def __init__(self, n):
        super().__init__(n)
        self.queries = 0

    def less(self, a, b):
        self.queries += 1
        return super().less(a, b)

    def _plus(self, a, b):
        self.queries += 1
        return super()._plus(a, b)

    def _times(self, a, b):
        self.queries += 1
        return super()._times(a, b)


class TestTruncation:
    def test_basic_shape(self):
        m = make_truncation(10)
        assert m.size() == 11
        assert list(m) == list(range(11))
        assert m.largest == 10
        assert 10 in m and 11 not in m and -1 not in m

    def test_partial_operations(self):
        m = make_truncation(10)
        assert m.plus(4, 5) == 9
        assert m.plus(6, 7) is None
        assert m.times(2, 5) == 10
        assert m.times(4, 4) is None

    def test_truncation_at_one(self):
        m = make_truncation(1)
        assert list(m) == [0, 1]
        assert m.succ(0) == 1
        assert m.succ(1) is None

    def test_hundred(self):
        m = make_truncation(100)
        assert m.largest == 100
        assert m.times(10, 10) == 100
        assert m.times(10, 11) is None

    def test_zero_height_rejected(self):
        with pytest.raises(ValueError):
            make_truncation(0)

    def test_out_of_domain_is_an_error_not_undefined(self):
        m = make_truncation(10)
        with pytest.raises(DomainError):
            m.plus(5, 11)
        with pytest.raises(DomainError):
            m.times(-1, 2)

    def test_bool_is_not_an_element(self):
        assert True not in make_truncation(10)


class TestSubsetWorld:
    def test_sparse_world_has_no_defined_sum(self):
        w = make_subset_world({3, 5})
        assert all(w.plus(a, b) is None for a in w for b in w)
        assert w.less(3, 5)

    def test_even_world_operations(self):
        w = make_subset_world({0, 2, 4})
        for a in w:
            for b in w:
                assert w.plus(a, b) == (a + b if a + b in (0, 2, 4) else None)
                assert w.times(a, b) == (a * b if a * b in (0, 2, 4) else None)

    def test_empty_world(self):
        w = make_subset_world(set())
        assert w.size() == 0
        assert w.zero is None and w.one is None

    def test_constants_partial(self):
        w = make_subset_world({1, 2, 3})
        assert w.zero is None
        assert w.one == 1
        assert w.succ(2) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            make_subset_world({-1, 2})

    @pytest.mark.parametrize("bad", [True, 1.0, 1.5])
    def test_non_int_is_rejected_by_both_classes(self, bad):
        # Beside TestTruncation.test_bool_is_not_an_element: a subset world
        # once took True and 1.0 as elements and returned 2.0 for 1.0 + 1.
        with pytest.raises(ValueError):
            make_truncation(bad)
        with pytest.raises(ValueError):
            make_subset_world({0, bad})
        for m in (make_truncation(10), make_subset_world({0, 1, 2})):
            assert bad not in m
            with pytest.raises(DomainError):
                m.plus(bad, 1)
            with pytest.raises(DomainError):
                m.element(bad)


class TestTruncationIsTheInitialSubsetWorld:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_agrees_with_the_subset_world_on_0_to_n(self, n):
        t, w = Truncation(n), SubsetWorld(range(n + 1))
        assert isinstance(t, SubsetWorld)
        assert list(t) == list(w) == list(range(n + 1))
        assert t.size() == w.size() == n + 1
        assert (t.zero, t.one) == (w.zero, w.one) == (0, 1)
        assert all((x in t) == (x in w) for x in range(-2, n + 3))
        for v in (-1, n + 1):
            for m in (t, w):
                with pytest.raises(DomainError):
                    m.element(v)
        for a in t:
            assert t.succ(a) == w.succ(a)
            assert list(t.iter_below(a)) == list(w.iter_below(a))
            assert t.element(a) == w.element(a) == a
            assert t.valuation(a) == w.valuation(a) == a
            for b in t:
                assert t.less(a, b) == w.less(a, b)
                assert t.plus(a, b) == w.plus(a, b)
                assert t.times(a, b) == w.times(a, b)
        # Only the truncation names its largest number.
        assert t.largest == n and w.largest is None

    def test_huge_truncation_is_never_materialized(self):
        n = 10**30
        m = make_truncation(n)
        assert m.size() == n + 1
        assert n in m and n + 1 not in m and -1 not in m
        assert m.element(n) == n
        with pytest.raises(DomainError):
            m.element(n + 1)
        assert list(itertools.islice(m.iter_below(n), 3)) == [0, 1, 2]
        assert m.plus(n, 0) == n and m.plus(n, 1) is None


class TestLargestSquareBase:
    @pytest.mark.parametrize("n,b", [(100, 10), (99, 9), (12, 3), (1, 1), (10**6, 1000)])
    def test_matches_integer_square_root(self, n, b):
        assert largest_square_base(make_truncation(n)) == b

    def test_oracle_property(self):
        for n in range(1, 300):
            assert largest_square_base(make_truncation(n)) == math.isqrt(n)


class TestAxiomChecks:
    @pytest.mark.parametrize("n", [1, 2, 5, 12, 100])
    def test_truncations_pass(self, n, induction_corpus):
        report = check_fa_axioms(make_truncation(n), induction_corpus)
        assert report.passed, report.failures()
        assert all(g.mode == "exhaustive" for g in report.groups.values())

    @pytest.mark.parametrize("n", [4, 12])
    def test_lifted_models_pass(self, n, induction_corpus):
        report = check_fa_axioms(build_plus_model(make_truncation(n)), induction_corpus)
        assert report.passed, report.failures()
        assert all(g.mode == "exhaustive" for g in report.groups.values())

    def test_large_model_sampled(self, induction_corpus):
        report = check_fa_axioms(make_truncation(10**6), induction_corpus)
        assert report.passed, report.failures()
        assert report.groups["order"].mode == "sampled"

    def test_gap_world_fails_successor(self):
        # {0, 2} has no 1, so the successor of 0 is undefined below the top.
        report = check_fa_axioms(make_subset_world({0, 2}))
        assert not report.passed
        assert not report.groups["successor"].passed

    def test_non_downward_closed_world_fails(self):
        report = check_fa_axioms(make_subset_world({0, 1, 2, 5}))
        assert not report.passed

    def test_successor_gap_names_the_least_element_inside_it(self):
        class LongStep(SubsetWorld):
            # 1 + 1 = 100 skips 9 and 33.
            def _plus(self, a, b):
                return 100 if (a, b) == (1, 1) else super()._plus(a, b)

        report = check_fa_axioms(LongStep([0, 1, 9, 33, 100]))
        assert report.groups["successor"].failures == [
            "9 lies strictly between 1 and its successor"
        ]

    def test_reports_carry_failures(self):
        report = check_fa_axioms(make_subset_world({2, 3}))
        assert report.failures()

    def test_induction_failure_prints_the_formula(self):
        report = check_fa_axioms(LoopingSuccessor(3), [parse_formula("x = 0 | x = 1")])
        assert report.groups["induction"].failures == [
            "induction instance fails for x = 0 | x = 1"
        ]

    def test_sampled_failure_is_certified_by_bisection(self):
        # The step that breaks the chain, at 4, lies outside the sample; the
        # bisection between 0 and a sampled falsifier finds it.
        phi = parse_formula("x < 1 + 1 + 1 + 1 + 1")
        report = check_fa_axioms(make_truncation(10**6), [phi])
        assert report.groups["induction"].mode == "sampled"
        assert report.passed, report.failures()
        bounded = check_bounded_induction(build_tower(make_truncation(12), 2), [phi])
        assert bounded.passed, bounded.failures
        assert [ok for _, _, ok in bounded.induction] == [True, True, True]

    def test_sampled_failure_stays_when_no_step_breaks(self):
        # Counting up from 0 never leaves {0, 1}: the instance really fails.
        report = check_fa_axioms(LoopingSuccessor(10**6), [parse_formula("x = 0 | x = 1")])
        assert report.groups["induction"].mode == "sampled"
        assert report.groups["induction"].failures == [
            "induction instance fails for x = 0 | x = 1"
        ]

    def test_exhaustive_scan_never_bisects(self):
        class NoElement(LoopingSuccessor):
            def element(self, value):
                raise AssertionError("bisection in an exhaustive scan")

        report = check_fa_axioms(NoElement(3), [parse_formula("x = 0 | x = 1")])
        assert report.groups["induction"].mode == "exhaustive"
        assert not report.groups["induction"].passed

    def test_subset_world_lacks_only_constant_N(self):
        # The same structure as the truncation at 3, but N does not denote.
        corpus = [parse_formula("x < 1 + 1")]
        assert check_fa_axioms(make_truncation(3), corpus).passed
        report = check_fa_axioms(make_subset_world({0, 1, 2, 3}), corpus)
        assert report.failures() == ["constant N absent"]
        assert report.groups["induction"].passed


class TestCorpusErrorsComeFirst:
    def test_axioms_reject_an_induction_formula_before_any_sweep(self):
        m = CountingTruncation(300)
        corpus = [parse_formula("x = x"), parse_formula("x = y")]
        with pytest.raises(EvalError, match="exactly one free variable"):
            check_fa_axioms(m, corpus)
        assert m.queries == 0

    def test_bounded_induction_rejects_before_any_stage(self):
        stage = CountingTruncation(12)
        corpus = [parse_formula("x + 0 = x"), parse_formula("x + y = y + x")]
        with pytest.raises(EvalError, match="exactly one free variable"):
            check_bounded_induction(Tower(stages=[stage], heights=[12]), corpus)
        assert stage.queries == 0


# Each check validates its argument before evaluating it, so it must read a
# one-shot iterable once.  Every case reports something the empty argument
# does not: failures, results, or induction and absoluteness records.
ONE_SHOT_CASES = {
    "check_schema": (
        lambda arg: check_schema(fork_system(), SCHEMAS["Dot2"], arg),
        lambda: load_packaged_pairs("schema_instances.fml"),
    ),
    "check_fa_axioms": (
        lambda arg: check_fa_axioms(LoopingSuccessor(3), arg),
        lambda: [parse_formula("x = 0 | x = 1")],
    ),
    "check_bounded_induction": (
        lambda arg: check_bounded_induction(build_tower(make_truncation(12), 1), arg),
        lambda: [parse_formula("x + 0 = x"), parse_formula("E y < 1 + 1. y = 1")],
    ),
    "check_translation_theorem": (
        lambda arg: check_translation_theorem(aristotelian_system(3), arg),
        lambda: [parse_formula("E x. x = 1 + 1")],
    ),
}


@pytest.mark.parametrize("name", sorted(ONE_SHOT_CASES))
def test_a_generator_is_checked_like_a_list(name):
    check, items = ONE_SHOT_CASES[name]
    expected = check(items())
    assert expected != check([])
    assert check(x for x in items()) == expected


class TestSampleElements:
    def test_distinct_ascending_with_endpoints(self):
        m = make_truncation(10**6)
        sample = sample_elements(m, 50, random.Random(3))
        assert len(set(sample)) == 50
        assert sample == sorted(sample)
        assert sample[0] == 0 and sample[-1] == 10**6

    def test_lifted_model_sample_keeps_endpoints(self):
        mp = build_plus_model(make_truncation(100))
        sample = sample_elements(mp, 258, random.Random(0))
        assert len(set(sample)) == 258
        assert [mp.valuation(x) for x in sample] == sorted(mp.valuation(x) for x in sample)
        assert sample[0] == mp.zero and sample[-1] == mp.largest

    @pytest.mark.parametrize("n", [5, 6])
    def test_small_model_is_taken_whole(self, n):
        m = make_truncation(n)
        assert sample_elements(m, 7, random.Random(0)) == list(m)

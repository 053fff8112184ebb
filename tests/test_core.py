"""Truncation models, subset worlds, and the FA axiom checks."""
import itertools
import math
import random

import pytest

import finarith.core as core
from finarith.core import (
    AxiomReport, GroupResult, SubsetWorld, Truncation, check_fa_axioms,
    induction_fails, induction_variable, largest_square_base,
    make_subset_world, make_truncation, sample_elements,
)
from finarith.corpus import load_packaged_formulas, load_packaged_pairs
from finarith.errors import DomainError, EvalError
from finarith.interp import (
    InterpretedModel, Tower, build_plus_model, build_tower, check_bounded_induction,
)
from finarith.logic import Possibly, eval_formula, parse_formula, print_formula
from finarith.modal import (
    SCHEMAS, aristotelian_system, check_schema, check_translation_theorem, fork_system,
)
from test_one_point import LeakyTruncation


@pytest.fixture(scope="module")
def induction_corpus():
    return load_packaged_formulas("induction20.fml")


class LoopingSuccessor(Truncation):
    # 1 + 1 = 1: counting up from 0 never leaves {0, 1}.
    def _plus(self, a, b):
        return 1 if (a, b) == (1, 1) else super()._plus(a, b)


class TopStepsBack(Truncation):
    # 1 + 1 = 1, and the top has a successor: N + 1 = 2, below it.
    def _plus(self, a, b):
        if (a, b) == (1, 1):
            return 1
        if (a, b) == (self.n, 1):
            return 2
        return super()._plus(a, b)


class StepGap(Truncation):
    # 1 + 1 is undefined below the top: the instance's x + 1 is an
    # undefined term there.
    def _plus(self, a, b):
        return None if (a, b) == (1, 1) else super()._plus(a, b)


class LongStep(SubsetWorld):
    # 1 + 1 = 100 skips every member between 1 and 100.
    def _plus(self, a, b):
        return 100 if (a, b) == (1, 1) else super()._plus(a, b)


class SuccessorLeaves(Truncation):
    # 3 + 1 = 100, outside the domain: the successor of 3 is no element.
    def _plus(self, a, b):
        return 100 if (a, b) == (3, 1) else super()._plus(a, b)


class CheckedOrderSuccessorLeaves(SuccessorLeaves):
    # Its order, like every other query, rejects a non-element.
    def less(self, a, b):
        if a not in self or b not in self:
            self._require(a, b)
        return a < b


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

    @pytest.mark.parametrize("op", ["plus", "times"])
    @pytest.mark.parametrize("args,named", [((11, 12), "11"), ((5, 12), "12"), ((-1, 3), "-1")])
    def test_domain_error_names_the_first_argument_outside(self, op, args, named):
        with pytest.raises(DomainError) as exc:
            getattr(make_truncation(10), op)(*args)
        assert str(exc.value) == f"{named} is not in the domain"

    def test_bool_is_not_an_element(self):
        assert True not in make_truncation(10)

    @pytest.mark.parametrize("m, x", [
        (make_truncation(10), 13),
        (make_truncation(10), 1.5),
        (make_subset_world({0, 2}), 7),
    ], ids=["truncation-above-top", "truncation-float", "subset-non-member"])
    def test_iter_below_rejects_a_bound_outside_the_domain(self, m, x):
        # Raised by the call itself, before anything is iterated.
        with pytest.raises(DomainError, match=rf"^{x} is not in the domain$"):
            m.iter_below(x)

    @pytest.mark.parametrize("m, x", [
        (make_truncation(10), 99),
        (make_subset_world({0, 2}), 1.5),
        (make_truncation(10), True),
    ], ids=["truncation-above-top", "subset-float", "truncation-bool"])
    def test_valuation_rejects_a_non_element(self, m, x):
        # valuation once returned its argument unchecked: 99, 1.5 and True.
        with pytest.raises(DomainError, match=rf"^{x} is not in the domain$"):
            m.valuation(x)

    def test_iter_below_a_member_is_its_initial_segment(self):
        assert list(make_truncation(10).iter_below(3)) == [0, 1, 2]
        assert list(make_subset_world({0, 2, 5}).iter_below(5)) == [0, 2]


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

    @pytest.mark.parametrize("make, successor, value", [
        (lambda: SuccessorLeaves(12), ["4 lies strictly between 3 and its successor"], 100),
        (lambda: CheckedOrderSuccessorLeaves(12), None, 100),
        (lambda: LeakyTruncation(12), ["successor of the largest element is defined"], 13),
    ], ids=["successor-leaves", "checked-order", "leaky"])
    @pytest.mark.parametrize("with_corpus", [False, True])
    def test_an_operation_that_leaves_the_domain_fails_its_group(
        self, make, successor, value, with_corpus, induction_corpus,
    ):
        left = f"an operation left the domain: {value} is not in the domain"
        report = check_fa_axioms(make(), induction_corpus if with_corpus else ())
        assert not report.passed
        assert report.groups["order"].passed
        assert report.groups["successor"].failures == (successor or [left])
        assert report.groups["arithmetic"].failures == [left]
        induction = report.groups["induction"].failures
        assert all(f.endswith(f"leaves the domain: {value} is not in the domain") for f in induction)
        assert bool(induction) == (with_corpus and value == 100)  # only 3 + 1 leaves below the top

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

    def test_axioms_reject_a_deep_modal_formula_as_an_eval_error(self):
        phi = parse_formula("0 = 0")
        for _ in range(3000):
            phi = Possibly(phi)
        with pytest.raises(EvalError, match="formula is nested too deeply"):
            check_fa_axioms(make_truncation(3), [phi])

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

    def test_gapped_subset_world_is_sampled_by_position(self):
        # Drawn by value, the sample would ask the world of even numbers for
        # odd ones.  The draws are those of a truncation of the same size.
        w = make_subset_world(range(0, 3000, 2))
        positions = sample_elements(make_truncation(1499), 50, random.Random(3))
        assert sample_elements(w, 50, random.Random(3)) == [2 * p for p in positions]
        report = check_fa_axioms(w)
        assert {g.mode for g in report.groups.values()} == {"sampled"}

    @pytest.mark.parametrize("n", [5, 6])
    def test_small_model_is_taken_whole(self, n):
        m = make_truncation(n)
        assert sample_elements(m, 7, random.Random(0)) == list(m)


# --- the axiom check against a definitional copy of its sweeps ---
#
# _definitional_fa_report is the check as it was first written: each group
# asks its own questions afresh, pair by pair over the full product, with no
# successor or truth shared between sweeps.  check_fa_axioms asks each
# question once; its reports must not differ in any field.

def _definitional_induction_fails(m, phi, v, elements):
    top = m.largest

    def holds(a):
        return eval_formula(m, phi, {v: a})

    if not holds(m.zero):
        return False
    falsifier = None
    for a in elements:
        if not holds(a):
            falsifier = a
        elif top is not None and m.less(a, top) and not holds(m.succ(a)):
            return False
    if falsifier is None or None in (top, m.zero) or len(elements) == m.size():
        return falsifier is not None
    lo, hi = m.valuation(m.zero), m.valuation(falsifier)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if holds(m.element(mid)) else (lo, mid)
    return holds(m.succ(m.element(lo)))


def _definitional_fa_report(m, induction_corpus=(), budget=10**6, seed=0):
    induction_corpus = list(induction_corpus)
    induction_vars = [induction_variable(phi) for phi in induction_corpus]
    rng = random.Random(seed)
    exhaustive = m.size() ** 2 <= budget
    mode = "exhaustive" if exhaustive else "sampled"
    try:
        top = m.order_max()
    except DomainError:
        return AxiomReport(False, {"order": GroupResult("order", False, mode, ["empty domain"])})
    elements = list(m) if exhaustive else sample_elements(m, 256, rng)
    groups = {}

    fails = []
    if m.zero is None:
        fails.append("constant 0 absent")
    else:
        for x in elements:
            if x != m.zero and not m.less(m.zero, x):
                fails.append(f"0 is not below {x!r}")
                break
        for x in elements:
            if x != top and not m.less(x, top):
                fails.append(f"top {top!r} is not above {x!r}")
                break
    if m.largest is None:
        fails.append("constant N absent")
    for x in elements:
        if m.less(x, x):
            fails.append(f"order not irreflexive at {x!r}")
            break
    sampled = None if exhaustive else [(rng.choice(elements), rng.choice(elements)) for _ in range(2000)]

    def pair_pool():
        return itertools.product(elements, repeat=2) if sampled is None else sampled

    for a, b in pair_pool():
        if a != b and not m.less(a, b) and not m.less(b, a):
            fails.append(f"order not linear on {a!r}, {b!r}")
            break
        if m.less(a, b) and m.less(b, a):
            fails.append(f"order not antisymmetric on {a!r}, {b!r}")
            break
    groups["order"] = GroupResult("order", not fails, mode, fails)

    fails = []
    if m.succ(top) is not None:
        fails.append("successor of the largest element is defined")
    for a in elements:
        if a == top:
            continue
        s = m.succ(a)
        if s is None:
            fails.append(f"successor undefined at {a!r} below the top")
            break
        if not m.less(a, s):
            fails.append(f"successor of {a!r} is not above it")
            break
        for b in elements:
            if m.less(a, b) and m.less(b, s):
                fails.append(f"{b!r} lies strictly between {a!r} and its successor")
                break
        else:
            continue
        break
    groups["successor"] = GroupResult("successor", not fails, mode, fails)

    fails = []
    zero, one = m.zero, m.one
    if zero is None or one is None:
        fails.append("constants 0 and 1 must denote in an FA model")
    else:
        for a in elements:
            if m.plus(a, zero) != a:
                fails.append(f"{a!r} + 0 != {a!r}")
                break
            if m.times(a, zero) != zero:
                fails.append(f"{a!r} * 0 != 0")
                break
        for n, mm in pair_pool():
            sm = m.succ(mm)
            if sm is None:
                continue
            rhs = m.plus(n, mm)
            rhs = None if rhs is None else m.succ(rhs)
            if rhs is not None and m.plus(n, sm) != rhs:
                fails.append(f"{n!r} + ({mm!r}+1) != ({n!r}+{mm!r}) + 1")
                break
            prod = m.times(n, mm)
            rhs = None if prod is None else m.plus(prod, n)
            if rhs is not None and m.times(n, sm) != rhs:
                fails.append(f"{n!r} * ({mm!r}+1) != {n!r}*{mm!r} + {n!r}")
                break
    groups["arithmetic"] = GroupResult("arithmetic", not fails, mode, fails)

    fails = []
    if m.largest is not None:
        for phi, v in zip(induction_corpus, induction_vars):
            if _definitional_induction_fails(m, phi, v, elements):
                fails.append(f"induction instance fails for {print_formula(phi)}")
    groups["induction"] = GroupResult("induction", not fails, mode, fails)
    return AxiomReport(passed=all(g.passed for g in groups.values()), groups=groups)


class WrongTimes(Truncation):
    # 3 * 4 is one more than it should be, where that is still in range.
    def _times(self, a, b):
        c = super()._times(a, b)
        return c + 1 if (a, b) == (3, 4) and c is not None and c < self.n else c


class OddSuccessorSkips(Truncation):
    # a + 1 is a + 2 at odd a, so succ disagrees with the other sums there.
    def _plus(self, a, b):
        return super()._plus(a, 2) if b == 1 and a % 2 else super()._plus(a, b)


class PlusZeroMoves(Truncation):
    # 4 + 0 = 5.
    def _plus(self, a, b):
        return 5 if (a, b) == (4, 0) else super()._plus(a, b)


class TimesZeroMoves(Truncation):
    # 6 * 0 = 1.
    def _times(self, a, b):
        return 1 if (a, b) == (6, 0) else super()._times(a, b)


class TopWrapsStepGap(Truncation):
    # N + 1 = 0, and 3 + 1 is undefined below the top.
    def _plus(self, a, b):
        if (a, b) == (self.n, 1):
            return 0
        return None if (a, b) == (3, 1) else super()._plus(a, b)


class BentOrder(Truncation):
    """A truncation whose order answers the opposite at the given pairs."""

    def __init__(self, n, flips):
        super().__init__(n)
        self.flips = frozenset(flips)

    def less(self, a, b):
        return (a < b) != ((a, b) in self.flips)


# x = 0 | x = 1 fails its induction instance where counting up from 0
# stays in {0, 1}; x < 1 + 1 + 1 + 1 + 1 holds its instance by a broken step.
EXTRA_INDUCTION = ["x = 0 | x = 1", "x < 1 + 1 + 1 + 1 + 1", "!(x = 1 + 1 + 1)"]


def _seeded_subset_worlds(count, seed=7):
    rng = random.Random(seed)
    return [
        SubsetWorld({x for x in range(rng.randint(1, 16)) if rng.random() < 0.7})
        for _ in range(count)
    ]


DIFFERENTIAL_PANEL = (
    [(f"trunc{n}", lambda n=n: Truncation(n), {}) for n in range(1, 41)]
    + [(f"subset{i}", lambda w=w: w, {}) for i, w in enumerate(_seeded_subset_worlds(24))]
    + [
        ("long-step", lambda: LongStep([0, 1, 9, 33, 100]), {}),
        ("long-step-dense", lambda: LongStep(range(101)), {}),
        ("looping1", lambda: LoopingSuccessor(1), {}),
        ("looping3", lambda: LoopingSuccessor(3), {}),
        ("looping20", lambda: LoopingSuccessor(20), {}),
        ("top-steps-back", lambda: TopStepsBack(5), {}),
        ("step-gap", lambda: StepGap(6), {}),
        ("top-wraps-step-gap", lambda: TopWrapsStepGap(8), {}),
        ("wrong-times", lambda: WrongTimes(20), {}),
        ("not-linear", lambda: BentOrder(12, [(2, 5), (5, 2)]), {}),
        ("not-antisymmetric", lambda: BentOrder(12, [(7, 3)]), {}),
        ("not-irreflexive", lambda: BentOrder(12, [(4, 4)]), {}),
        ("top-not-largest", lambda: BentOrder(12, [(11, 12)]), {}),
        ("zero-not-least", lambda: BentOrder(12, [(0, 5)]), {}),
        ("plus-zero-moves", lambda: PlusZeroMoves(12), {}),
        ("times-zero-moves", lambda: TimesZeroMoves(12), {}),
        ("lift4", lambda: build_plus_model(make_truncation(4)), {}),
        ("lift9-width3", lambda: InterpretedModel(make_truncation(9), 3, 3), {}),
        ("sampled-trunc300", lambda: Truncation(300), {"budget": 10**4, "seed": 5}),
        ("sampled-bent", lambda: BentOrder(300, [(40, 7), (3, 200)]), {"budget": 10**4}),
        ("sampled-odd-succ", lambda: OddSuccessorSkips(10**4), {"budget": 10**4}),
    ]
)


@pytest.mark.parametrize(
    "make, options", [(make, options) for _, make, options in DIFFERENTIAL_PANEL],
    ids=[name for name, _, _ in DIFFERENTIAL_PANEL],
)
def test_axiom_reports_match_the_definitional_sweeps(make, options, induction_corpus):
    corpus = list(induction_corpus) + [parse_formula(t) for t in EXTRA_INDUCTION]
    expected = _definitional_fa_report(make(), corpus, **options)
    report = check_fa_axioms(make(), corpus, **options)
    assert list(report.groups) == list(expected.groups)
    assert report == expected


def test_the_differential_panel_sees_every_group_fail():
    corpus = [parse_formula(t) for t in EXTRA_INDUCTION]
    failed = {
        name for case, make, options in DIFFERENTIAL_PANEL
        for name, g in check_fa_axioms(make(), corpus, **options).groups.items()
        if g.failures
    }
    assert failed == {"order", "successor", "arithmetic", "induction"}


# --- what the axiom check asks ---

def test_axiom_check_query_count_on_counting_truncation_30(induction_corpus):
    # less, _plus and _times calls, the evaluator's included.  The sweeps
    # that asked every question afresh made 10,916.
    m = CountingTruncation(30)
    assert check_fa_axioms(m, induction_corpus).passed
    assert m.queries == 7013


def _counting(m):
    """m, counting its order and arithmetic queries in m.queries as
    CountingTruncation does."""
    m.queries = 0
    for name in ("less", "_plus", "_times"):
        def counted(*args, query=getattr(m, name)):
            m.queries += 1
            return query(*args)
        setattr(m, name, counted)
    return m


@pytest.mark.parametrize("make, queries", [
    (lambda: WrongTimes(20), 2730),
    (lambda: PlusZeroMoves(12), 1379),
    (lambda: StepGap(6), 387),
    (lambda: BentOrder(12, [(7, 3)]), 1459),
], ids=["wrong-times", "plus-zero-moves", "step-gap", "not-antisymmetric"])
def test_a_failing_axiom_sweep_stops_at_its_first_failure(make, queries, induction_corpus):
    # Each sweep asks nothing past its first failure: these counts pin where
    # the failing sweeps stop (the passing Truncation(20) asks 3,673).
    m = _counting(make())
    assert not check_fa_axioms(m, induction_corpus).passed
    assert m.queries == queries


def test_exhaustive_induction_scan_evaluates_once_per_element(monkeypatch, induction_corpus):
    calls = []
    compile_formula = core._code

    def counting(phi):
        evaluate = compile_formula(phi)

        def count(m, assignment, modal):
            calls.append(assignment)
            return evaluate(m, assignment, modal)
        return count

    monkeypatch.setattr(core, "_code", counting)
    m = make_truncation(30)
    for phi in list(induction_corpus) + [parse_formula(t) for t in EXTRA_INDUCTION]:
        calls.clear()
        induction_fails(m, phi, induction_variable(phi), list(m))
        values = [a for assignment in calls for a in assignment.values()]
        assert len(values) == len(set(values)) <= m.size(), print_formula(phi)

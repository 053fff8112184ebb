"""The digit-string lifting: arithmetic, the initial-segment embedding, towers."""
import gc
import hashlib
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import finarith
from finarith.core import Truncation, largest_square_base, make_truncation
from finarith.corpus import load_packaged_formulas
from finarith.errors import AdmissibilityError, DomainError, EvalError
from finarith.interp import (
    _ROSTER_BUDGET, InstrumentedStructure, InterpretedModel, build_plus_model,
    build_tower, check_bounded_induction, embed_initial, limit_eval,
    minimal_admissible_width, verify_biinterpretation, verify_induction_lex,
)
from finarith.logic import Const0, Eq, Not, Possibly, Var, parse_formula
from test_core import LoopingSuccessor


@pytest.fixture(scope="module")
def m100():
    return make_truncation(100)


@pytest.fixture(scope="module")
def lift100(m100):
    return build_plus_model(m100)


def base10(lift100):
    return lift100


class TestDigitOperations:
    def test_lexical_order(self, lift100):
        s = lift100.element(345)
        t = lift100.element(678)
        assert lift100.less(s, t)
        assert not lift100.less(t, s)
        assert not lift100.less(s, s)

    def test_carry_boundary_order(self, lift100):
        assert lift100.less(lift100.element(9999), lift100.element(10000))

    def test_succ_double_carry(self, lift100):
        assert lift100.succ(lift100.element(99)) == lift100.element(100)
        assert lift100.succ(lift100.zero) == lift100.one

    def test_succ_of_top_undefined(self, lift100):
        assert lift100.succ(lift100.largest) is None

    def test_plus(self, lift100):
        assert lift100.plus(lift100.element(345), lift100.element(678)) == lift100.element(1023)
        assert lift100.plus(lift100.largest, lift100.one) is None
        s = lift100.element(4242)
        assert lift100.plus(s, lift100.zero) == s

    def test_times(self, lift100):
        assert lift100.times(lift100.element(12), lift100.element(34)) == lift100.element(408)
        assert lift100.times(lift100.element(400), lift100.element(300)) is None
        s = lift100.element(271)
        assert lift100.times(s, lift100.one) == s

    def test_mismatched_models_rejected(self, lift100):
        other = build_plus_model(make_truncation(99))
        with pytest.raises(DomainError):
            lift100.plus(lift100.zero, other.zero)

    @pytest.mark.parametrize("op", ["plus", "times", "less"])
    def test_domain_error_names_the_first_argument_outside(self, lift100, op):
        other = build_plus_model(make_truncation(99))
        for args, named in [((other.one, other.zero), other.one),
                            ((lift100.one, other.zero), other.zero)]:
            with pytest.raises(DomainError) as exc:
                getattr(lift100, op)(*args)
            assert str(exc.value) == f"{named!r} is not in the domain"
        for unary in (lift100.succ, lift100.valuation):
            with pytest.raises(DomainError) as exc:
                unary(other.one)
            assert str(exc.value) == "<00001 base 9> is not in the domain"

    def test_same_positions_in_two_lifts_are_distinct_keys(self, lift100):
        # A string hashes by its positions alone; __eq__ tells the models
        # apart, so strings of two lifts never collapse into one dict key.
        other = build_plus_model(make_truncation(100))
        x, y = lift100.element(345), other.element(345)
        assert x.idx == y.idx and hash(x) == hash(y)
        assert x != y and y != x
        assert x == lift100.element(345)
        keys = {x: "lift100", y: "other"}
        assert len(keys) == 2
        assert keys[x] == "lift100" and keys[y] == "other"

    @pytest.mark.parametrize("bad", [1.5, 1.0, True, False, "1", None])
    def test_element_takes_integers_only(self, lift100, bad):
        # element(1.5) once made float digits that passed membership, and
        # plus then raised a bare TypeError; element(True) returned 1.
        with pytest.raises(DomainError):
            lift100.element(bad)

    def test_iter_below_is_the_definitional_initial_segment(self):
        mp = build_plus_model(make_truncation(9))  # b = 3, k = 5: 243 elements
        for v in (0, 1, 2, 3, 100, mp.size() - 1):
            x = mp.element(v)
            assert list(mp.iter_below(x)) == [s for s in mp if mp.less(s, x)], v

    def test_string_rendering(self, lift100):
        assert lift100.element(345).as_string() == "00345"
        assert lift100.largest.as_string() == "99999"

    @pytest.mark.parametrize("answer", [None, 50])
    def test_a_digit_sum_the_ground_gets_wrong_is_a_domain_error(self, answer):
        # 2 + 3 undefined, or 50, past the digits of base 10, was once read
        # as a carry with digit -5, and the lift returned a non-element.
        mp = build_plus_model(SumAt(answer))
        with pytest.raises(DomainError, match="digit sum undefined or not a digit"):
            mp.plus(mp.element(2), mp.element(3))
        report = verify_biinterpretation(mp.ground, mp)
        assert report.checks["embedded_copy_isomorphic"] is False
        assert report.failures[0] == (
            "an operation left the domain: digit sum undefined or not a digit below the base"
        )


class TestOracleEquivalence:
    @pytest.mark.parametrize("b,k", [(2, 2), (2, 4), (3, 3), (5, 3)])
    def test_exhaustive_small_bases(self, b, k):
        mp = InterpretedModel(make_truncation(b * b), b, k)
        size = b**k
        elems = [mp.element(v) for v in range(size)]
        for x in range(size):
            for y in range(size):
                s = mp.plus(elems[x], elems[y])
                assert (s is None) == (x + y >= size)
                if s is not None:
                    assert mp.valuation(s) == x + y
                p = mp.times(elems[x], elems[y])
                assert (p is None) == (x * y >= size)
                if p is not None:
                    assert mp.valuation(p) == x * y

    def test_succ_pattern(self):
        mp = InterpretedModel(make_truncation(9), 3, 4)
        for v in range(80):
            assert mp.valuation(mp.succ(mp.element(v))) == v + 1
        assert mp.succ(mp.element(80)) is None

    def test_order_isomorphic_to_numeric(self):
        mp = InterpretedModel(make_truncation(4), 2, 4)
        elems = [mp.element(v) for v in range(16)]
        for x in range(16):
            for y in range(16):
                assert mp.less(elems[x], elems[y]) == (x < y)


class TestBuildPlusModel:
    def test_heights(self, m100, lift100):
        assert lift100.base_value == 10
        assert lift100.valuation(lift100.largest) == 99999
        assert lift100.size() == 100000

    def test_truncation_twelve(self):
        mp = build_plus_model(make_truncation(12))
        assert mp.base_value == 3
        assert mp.valuation(mp.largest) == 242

    def test_inadmissible_names_minimal_width(self):
        with pytest.raises(AdmissibilityError) as exc:
            build_plus_model(make_truncation(8))
        assert exc.value.minimal_width == 7
        assert minimal_admissible_width(2, 8) == 7

    def test_minimal_width_refuses_a_base_below_two(self):
        # No width reaches top**2 in base 1, so an unguarded search never
        # ends: run it where a hang fails the test instead of the suite.
        script = (
            "from finarith.errors import AdmissibilityError\n"
            "from finarith.interp import minimal_admissible_width\n"
            "for base in (1, 0):\n"
            "    try:\n"
            "        minimal_admissible_width(base, 3)\n"
            "    except AdmissibilityError as exc:\n"
            "        print(exc)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(finarith.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=env, timeout=30, check=True,
        ).stdout
        assert out == "digit base must be at least 2\n" * 2

    @pytest.mark.parametrize("base, width, message", [
        (1, 4, "digit base must be at least 2"),
        (3, 1, "digit width must be at least 2"),
        (20, 4, "ground model ends before the base"),
    ])
    def test_direct_construction_refusals(self, base, width, message):
        with pytest.raises(AdmissibilityError, match=message):
            InterpretedModel(make_truncation(9), base, width)

    def test_a_base_above_the_roster_budget_is_refused_before_the_walk(self):
        ground = InstrumentedStructure(make_truncation(10**12))
        with pytest.raises(AdmissibilityError, match="above the roster budget"):
            InterpretedModel(ground, _ROSTER_BUDGET + 1, 2)
        assert ground.requests == []  # not one successor walked

    def test_a_ground_whose_successor_cycles_is_refused(self):
        # 1 + 1 = 1, so counting up from 0 never reaches the base 4.  The
        # roster walk once went on forever; this ground stops it after
        # 1,000 successors.
        class StoppingLoop(LoopingSuccessor):
            calls = 0

            def succ(self, a):
                self.calls += 1
                if self.calls > 1000:
                    raise RuntimeError("the roster walk does not stop")
                return super().succ(a)

        ground = StoppingLoop(20)
        with pytest.raises(AdmissibilityError, match="4 successor steps from 0 do not reach the base"):
            build_plus_model(ground)
        assert ground.calls == 1 + 4  # largest_square_base's, then b = 4 walk steps

    def test_a_base_at_the_roster_budget_builds(self):
        mp = InterpretedModel(make_truncation(_ROSTER_BUDGET), _ROSTER_BUDGET, 2)
        assert mp.base_value == _ROSTER_BUDGET

    def test_tower_stage_four_over_twelve_is_refused(self):
        # Its base is about 2.2e7: the roster walk once ran out of memory.
        with pytest.raises(AdmissibilityError, match="digit base 22389551 "):
            build_tower(make_truncation(12), 4)

    def test_base_past_the_square_bound_fails_at_its_first_digit_product(self):
        # 5 * 5 is not in {0, ..., 9}.  Construction asks the ground model
        # nothing beyond the roster walk, so the model builds, and sums work.
        mp = InterpretedModel(make_truncation(9), 5, 3)
        four = mp.element(4)
        assert mp.valuation(mp.plus(four, four)) == 8
        with pytest.raises(DomainError, match="digit product undefined"):
            mp.times(four, four)

    def test_width_nine_succeeds_for_eight(self):
        mp = build_plus_model(make_truncation(8), width=7)
        assert mp.valuation(mp.largest) == 127

    def test_square_of_ground_top_defined(self, m100, lift100):
        e = embed_initial(m100, lift100)
        sq = lift100.times(e(100), e(100))
        assert sq is not None and lift100.valuation(sq) == 10000


class TestEmbedding:
    def test_paper_examples(self, m100, lift100):
        e = embed_initial(m100, lift100)
        assert e(73).as_string() == "00073"
        assert e(100).as_string() == "00100"

    def test_base_three_example(self):
        m = make_truncation(12)
        mp = build_plus_model(m)
        e = embed_initial(m, mp)
        assert e(11).as_string() == "00102"
        assert mp.valuation(e(11)) == 11

    def test_image_downward_closed_and_preserving(self):
        m = make_truncation(30)
        mp = build_plus_model(m)
        e = embed_initial(m, mp)
        for x in range(31):
            assert mp.valuation(e(x)) == x
        for x in range(31):
            for y in range(31):
                assert m.less(x, y) == mp.less(e(x), e(y))
                s = m.plus(x, y)
                if s is not None:
                    assert mp.plus(e(x), e(y)) == e(s)

    def test_outside_ground_rejected(self, m100, lift100):
        e = embed_initial(m100, lift100)
        with pytest.raises(DomainError):
            e(101)


class TestBiinterpretation:
    def test_hundred_passes(self, m100, lift100):
        report = verify_biinterpretation(m100, lift100)
        assert report.passed, report.failures

    def test_twelve_exhaustive(self):
        m = make_truncation(12)
        mp = build_plus_model(m)
        report = verify_biinterpretation(m, mp)
        assert report.passed
        assert report.checks == {
            "embedded_copy_isomorphic": True,
            "representation_identity": True,
            "round_trip_identity": True,
        }

    def test_corrupted_embedding_flagged(self, m100, lift100):
        honest = embed_initial(m100, lift100)

        def swapped(x):
            if x == 3:
                return honest(4)
            if x == 4:
                return honest(3)
            return honest(x)

        report = verify_biinterpretation(m100, lift100, embedding=swapped)
        assert not report.passed
        assert not report.checks["embedded_copy_isomorphic"]
        assert report.failures

    @pytest.mark.parametrize("op, at, answer, message", [
        ("less", (2, 5), lambda mp: False, "order not preserved at (2, 5)"),
        ("plus", (2, 3), lambda mp: None, "plus not preserved at (2, 3)"),
        ("plus", (5, 9), lambda mp: mp.zero, "plus image not faithful at (5, 9)"),
        ("times", (3, 4), lambda mp: None, "times not preserved at (3, 4)"),
    ])
    def test_each_embedded_copy_failure_is_named(self, op, at, answer, message):
        mp = WrongAt(op, at, answer)
        report = verify_biinterpretation(mp.ground, mp)
        assert report.failures == [message]
        assert report.checks == {
            "embedded_copy_isomorphic": False,
            "representation_identity": True,
            "round_trip_identity": True,
        }

    def test_each_fact_keeps_its_first_failure(self):
        # The embedding shifts every value from 3 up by one, within the
        # lift: the copy, the round trip and, through the image of b, the
        # digit representation all fail, each named once.
        m = make_truncation(12)
        mp = build_plus_model(m)
        honest = embed_initial(m, mp)
        report = verify_biinterpretation(
            m, mp, embedding=lambda x: honest(x) if x < 3 else mp.element(x + 1),
        )
        assert report.checks == dict.fromkeys(report.checks, False)
        assert report.failures == [
            "plus not preserved at (0, 3)",
            "digit representation does not rebuild <00010 base 3>",
            "round trip fails at 3",
        ]

    def test_an_embedding_into_another_lift_is_reported_not_raised(self):
        # The images belong to a second lift of the same ground, so the
        # copy and the representation ask this lift about strings outside
        # it; their digits are still ground elements, so the round trip holds.
        m = make_truncation(20)
        mp, foreign = build_plus_model(m), build_plus_model(m)
        report = verify_biinterpretation(m, mp, embedding=embed_initial(m, foreign))
        assert report.checks == {
            "embedded_copy_isomorphic": False,
            "representation_identity": False,
            "round_trip_identity": True,
        }
        assert report.failures == [
            "an operation left the domain: <00000 base 4> is not in the domain",
            "an operation left the domain: <00010 base 4> is not in the domain",
        ]

    def test_an_embedding_that_leaves_the_lift_is_reported_not_raised(self):
        # The embedding itself fails from 2 up, and on b = 4: each fact that
        # embeds such an element reports the failure; the round trip stops
        # earlier, at 1, whose image's digits overflow the ground.
        m = make_truncation(20)
        mp = build_plus_model(m)
        report = verify_biinterpretation(m, mp, embedding=lambda x: mp.element(x * 1000))
        assert report.checks == dict.fromkeys(report.checks, False)
        assert report.failures == [
            "an operation left the domain: value 2000 outside the width-5 base-4 range",
            "an operation left the domain: value 4000 outside the width-5 base-4 range",
            "round trip fails at 1",
        ]


class SumAt(Truncation):
    """Truncation(100), whose lift has b = 10, with 2 + 3 = answer."""

    def __init__(self, answer):
        super().__init__(100)
        self.answer = answer

    def _plus(self, a, b):
        return self.answer if (a, b) == (2, 3) else super()._plus(a, b)


class WrongAt(InterpretedModel):
    """The lift of Truncation(12), b = 3 and k = 5, whose checked less,
    plus or times gives answer(model) at one pair of values."""

    def __init__(self, op, at, answer):
        super().__init__(make_truncation(12), 3, 5)
        self.op, self.at, self.answer = op, at, answer

    def _bent(self, op, a, b, honest):
        if op == self.op and (self.valuation(a), self.valuation(b)) == self.at:
            return self.answer(self)
        return honest(a, b)

    def less(self, a, b):
        return self._bent("less", a, b, super().less)

    def plus(self, a, b):
        return self._bent("plus", a, b, super().plus)

    def times(self, a, b):
        return self._bent("times", a, b, super().times)


class TestLexMinimization:
    def test_tautology_has_no_counterexample(self, lift100):
        phi = parse_formula("x < N | x = N")
        assert verify_induction_lex(lift100, phi) is None

    def test_doubling_frontier(self, lift100):
        phi = parse_formula("Def(x + x)")
        least = verify_induction_lex(lift100, phi)
        assert lift100.valuation(least) == 50000

    def test_least_element(self, lift100):
        least = verify_induction_lex(lift100, parse_formula("!(x = x)"))
        assert least == lift100.zero

    def test_needs_exactly_one_free_variable(self, lift100):
        with pytest.raises(EvalError):
            verify_induction_lex(lift100, parse_formula("x = y"))

    def test_deep_formula_is_an_eval_error(self, lift100):
        phi = Eq(Var("x"), Var("x"))
        for _ in range(3000):
            phi = Not(phi)
        with pytest.raises(EvalError, match="formula is nested too deeply"):
            verify_induction_lex(lift100, phi)


class TestTower:
    def test_twelve_two_stages(self):
        tower = build_tower(make_truncation(12), 2)
        assert tower.heights == [12, 242, 759374]
        for cur, nxt in zip(tower.heights, tower.heights[1:]):
            assert nxt >= cur * cur

    def test_hundred_one_stage(self):
        tower = build_tower(make_truncation(100), 1)
        assert tower.heights == [100, 99999]

    def test_zero_stages(self):
        tower = build_tower(make_truncation(100), 0)
        assert tower.heights == [100]

    def test_limit_eval(self):
        tower = build_tower(make_truncation(100), 1)
        r = limit_eval(tower, "times", 60, 70)
        assert (r.value, r.stage) == (4200, 1)
        r = limit_eval(tower, "plus", 2, 3)
        assert (r.value, r.stage) == (5, 0)

    def test_limit_eval_twelve(self):
        tower = build_tower(make_truncation(12), 2)
        r = limit_eval(tower, "times", 12, 12)
        assert (r.value, r.stage) == (144, 1)

    def test_limit_eval_rejects_foreign_operand(self):
        tower = build_tower(make_truncation(100), 1)
        with pytest.raises(DomainError):
            limit_eval(tower, "plus", 101, 2)
        with pytest.raises(DomainError):
            limit_eval(tower, "times", 2, 101)

    def test_limit_eval_exhaustion(self):
        tower = build_tower(make_truncation(100), 0)
        with pytest.raises(EvalError):
            limit_eval(tower, "times", 60, 70)

    def test_unknown_operation(self):
        tower = build_tower(make_truncation(100), 0)
        with pytest.raises(EvalError):
            limit_eval(tower, "minus", 3, 2)

    def test_tower_is_freed_without_the_cycle_collector(self):
        gc.disable()
        try:
            tower = build_tower(make_truncation(12), 3)
            top = tower.stages[3]
            x, y = top.element(123456), top.element(654)
            assert top.valuation(top.plus(x, y)) == 124110
            assert top.valuation(top.times(x, y)) == 80740224
            assert limit_eval(tower, "times", 12, 12).value == 144
            refs = [weakref.ref(stage) for stage in tower.stages]
            del tower, top, x, y
            assert [ref() for ref in refs] == [None] * 4
        finally:
            gc.enable()


class TestLiftedGround:
    """Digit arithmetic on a stage whose ground is itself a lift."""

    def test_operations_match_big_integers(self):
        mp = build_tower(make_truncation(12), 3).stages[3]
        assert (mp.base_value, mp.width) == (871, 5)
        size = mp.size()
        rng = random.Random(16)
        for _ in range(300):
            op = rng.choice(("plus", "times", "succ", "less"))
            x, y = _spread_value(rng, size), _spread_value(rng, size)
            ex, ey = mp.element(x), mp.element(y)
            if op == "less":
                assert mp.less(ex, ey) == (x < y), (x, y)
                continue
            r = mp.succ(ex) if op == "succ" else getattr(mp, op)(ex, ey)
            want = {"plus": x + y, "times": x * y, "succ": x + 1}[op]
            assert (r is None) == (want >= size), (op, x, y)
            assert r is None or mp.valuation(r) == want, (op, x, y)


class TestBoundedInduction:
    def test_packaged_corpus_passes(self):
        tower = build_tower(make_truncation(12), 2)
        corpus = load_packaged_formulas("delta0.fml")
        report = check_bounded_induction(tower, corpus)
        assert report.passed, report.failures
        assert report.induction and report.absoluteness

    def test_unbounded_formula_rejected(self):
        tower = build_tower(make_truncation(12), 1)
        with pytest.raises(EvalError):
            check_bounded_induction(tower, [parse_formula("A x. E y. y = x + 1")])

    # The lift of a ground whose 2 + 3 is undefined raises DomainError at
    # stage 1 on the sum of its digits 2 and 3.
    @pytest.mark.parametrize("text", [
        "x + (1 + 1) = (1 + 1) + x", "E y < N. (1 + 1) + (1 + 1 + 1) = y",
    ], ids=["induction", "absoluteness"])
    def test_a_domain_error_is_reported_at_its_stage(self, text):
        report = check_bounded_induction(build_tower(SumAt(None), 1), [parse_formula(text)])
        assert not report.passed
        assert len(report.failures) == 1
        assert "leaves the domain at stage 1: digit sum undefined" in report.failures[0]

    @pytest.mark.parametrize("prefix", [Not, Possibly])  # closed, not Delta_0
    def test_a_deep_corpus_formula_is_an_eval_error(self, prefix):
        phi = Eq(Const0(), Const0())
        for _ in range(3000):
            phi = prefix(phi)
        tower = build_tower(make_truncation(12), 1)
        with pytest.raises(EvalError, match="formula is nested too deeply"):
            check_bounded_induction(tower, [phi])


class TestPurity:
    def test_ground_operands_stay_below_base(self):
        raw = make_truncation(100)
        b = largest_square_base(raw)
        instr = InstrumentedStructure(raw)
        mp = build_plus_model(instr, base=b)
        # Exercise construction-time machinery: digit tables, adds,
        # multiplies, successor chains.
        x, y = mp.element(4321), mp.element(777)
        mp.plus(x, y)
        mp.times(x, y)
        mp.succ(mp.element(99))
        mp.times(mp.element(314), mp.element(271))
        assert instr.requests
        assert instr.all_operands_below(b)


    def test_wrapper_records_arithmetic_and_forwards_the_rest(self):
        raw = make_truncation(10)
        instr = InstrumentedStructure(raw)
        assert list(instr) == list(raw) and 10 in instr and 11 not in instr
        assert (instr.zero, instr.one, instr.largest) == (0, 1, 10)
        assert instr.size() == 11 and instr.order_max() == 10
        assert list(instr.iter_below(3)) == [0, 1, 2]
        assert instr.less(2, 3) and instr.element(4) == 4 and instr.valuation(4) == 4
        assert instr.requests == []
        assert (instr.plus(2, 3), instr.times(2, 3), instr.succ(9)) == (5, 6, 10)
        assert instr.requests == [("plus", 2, 3), ("times", 2, 3), ("plus", 9, 1)]
        instr.reset()
        assert instr.requests == []


def _spread_value(rng, size):
    """A value below size whose magnitude is spread over every digit count,
    not only the top one."""
    return rng.randrange(max(1, size >> rng.randrange(size.bit_length())))


def _ground_requests(m, ops=300, seed=5):
    """The base b of a lift of m and the instrumented ground of the lift,
    which holds every ground request made while lifting m at that base and
    then running a seeded batch of plus, times and succ on the lift.  The
    base is chosen on m itself, so the requests are the lift's alone."""
    b = largest_square_base(m)
    ground = InstrumentedStructure(m)
    mp = build_plus_model(ground, base=b)
    size = mp.size()
    rng = random.Random(seed)

    for _ in range(ops):
        op = rng.choice(("plus", "times", "succ"))
        x, y = mp.element(_spread_value(rng, size)), mp.element(_spread_value(rng, size))
        if op == "succ":
            mp.succ(x)
        else:
            getattr(mp, op)(x, y)
    return b, ground


def _count_and_digest(requests):
    return len(requests), hashlib.sha256(repr(requests).encode()).hexdigest()[:16]


def _stage_two():
    # The ground is itself a lift (b = 15, k = 5), so every table entry of
    # the new stage (b = 871) is filled by digit arithmetic one stage down.
    return build_tower(make_truncation(12), 2).stages[2]


# (n, count, digest) of the ground requests of a lift of make_truncation(n),
# then those of a lift of _stage_two() under a batch of 100 operations.
_RECORDED_SEQUENCES = [
    (12, 16, "2922779bdfe24576"),
    (100, 190, "80c5b4d3fdb132d7"),
    (400, 664, "a602cf72dbe5ed68"),
]
_RECORDED_OVER_A_LIFT = (1820, "940a65d384979800")


class TestGroundRequestSequence:
    """The digit tables ask the ground model a recorded sequence of
    questions: the roster walk's successors, then one plus or times of two
    digits as each table entry is first filled.  Every recorded sequence is
    checked to keep its operands below b.  A change meant to alter which
    entries are filled, or when, re-records the rows with
    ``PYTHONPATH=src:tests python tests/test_interp.py``."""

    @pytest.mark.parametrize("n,count,digest", _RECORDED_SEQUENCES)
    def test_recorded_sequence(self, n, count, digest):
        b, ground = _ground_requests(make_truncation(n))
        assert _count_and_digest(ground.requests) == (count, digest)
        assert ground.all_operands_below(b)

    def test_recorded_sequence_over_a_lifted_ground(self):
        b, ground = _ground_requests(_stage_two(), ops=100)
        assert _count_and_digest(ground.requests) == _RECORDED_OVER_A_LIFT
        assert ground.all_operands_below(b)

    @pytest.mark.parametrize("op", ["plus", "succ", "times"])
    def test_each_operation_reads_only_carry_free_add_entries(self, op):
        mp = build_plus_model(make_truncation(100))
        rng = random.Random(3)
        size = mp.size()
        for _ in range(200):
            x, y = mp.element(_spread_value(rng, size)), mp.element(_spread_value(rng, size))
            mp.succ(x) if op == "succ" else getattr(mp, op)(x, y)
        b = mp.base_value
        assert mp._adds and all(key < b * b for key in mp._adds)


if __name__ == "__main__":
    # Prints the two recorded values above, ready to paste; each row's comment
    # says whether its requests keep to digits below b.
    def row(m, ops=300):
        b, ground = _ground_requests(m, ops)
        count, digest = _count_and_digest(ground.requests)
        return f'{count}, "{digest}"', f"  # all_operands_below(b): {ground.all_operands_below(b)}"

    print("_RECORDED_SEQUENCES = [")
    for n, _, _ in _RECORDED_SEQUENCES:
        values, check = row(make_truncation(n))
        print(f"    ({n}, {values}),{check}")
    print("]")
    values, check = row(_stage_two(), ops=100)
    print(f"_RECORDED_OVER_A_LIFT = ({values}){check}")

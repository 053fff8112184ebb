"""The digit-string lifting: arithmetic, the initial-segment embedding, towers."""
import hashlib
import random

import pytest

from finarith.core import make_truncation
from finarith.corpus import load_packaged_formulas
from finarith.errors import AdmissibilityError, DomainError, EvalError
from finarith.interp import (
    InstrumentedStructure, InterpretedModel, build_plus_model,
    build_tower, check_bounded_induction, embed_initial, limit_eval,
    minimal_admissible_width, verify_biinterpretation, verify_induction_lex,
)
from finarith.logic import parse_formula


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

    @pytest.mark.parametrize("base, width, message", [
        (1, 4, "digit base must be at least 2"),
        (3, 1, "digit width must be at least 2"),
        (20, 4, "ground model ends before the base"),
    ])
    def test_direct_construction_refusals(self, base, width, message):
        with pytest.raises(AdmissibilityError, match=message):
            InterpretedModel(make_truncation(9), base, width)

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


class TestPurity:
    def test_ground_operands_stay_below_base(self):
        from finarith.core import largest_square_base

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


def _ground_requests(n, ops=300, seed=5):
    """Every ground request made while lifting make_truncation(n) and then
    running a seeded batch of plus, times and succ on the lift."""
    ground = InstrumentedStructure(make_truncation(n))
    mp = build_plus_model(ground)
    size = mp.size()
    rng = random.Random(seed)

    def draw():
        # Magnitudes spread over every digit count, not only the top one.
        return mp.element(rng.randrange(max(1, size >> rng.randrange(size.bit_length()))))

    for _ in range(ops):
        op = rng.choice(("plus", "times", "succ"))
        x, y = draw(), draw()
        if op == "succ":
            mp.succ(x)
        else:
            getattr(mp, op)(x, y)
    return ground.requests


class TestGroundRequestSequence:
    """The digit tables ask the ground model the same questions, in the
    same order, as the dict-memo tables they replaced did when these values
    were recorded: each entry is filled once, by the same ground operations
    on digits below b."""

    @pytest.mark.parametrize("n,count,digest", [
        (12, 31, "8fbb79adfe650eaa"),
        (100, 354, "804c93f936b75308"),
        (400, 984, "4e439ebb381b5f11"),
    ])
    def test_recorded_sequence(self, n, count, digest):
        requests = _ground_requests(n)
        assert len(requests) == count
        assert hashlib.sha256(repr(requests).encode()).hexdigest()[:16] == digest

"""Acceptance suite: one test per exit criterion, exact tolerances.

Each test is self-contained and asserts the full stated check; expected
values are frozen literals verified against big-integer arithmetic.
"""
import io
import json
import random

import pytest

from finarith.cli import main
from finarith.core import check_fa_axioms, largest_square_base, make_truncation
from finarith.corpus import load_packaged_formulas, load_packaged_pairs
from finarith.errors import DomainError
from finarith.interp import (
    InstrumentedStructure, InterpretedModel, build_plus_model,
    build_tower, check_bounded_induction, embed_initial, limit_eval,
)
from finarith.logic import eval_formula, parse_formula
from finarith.modal import (
    SCHEMAS, aristotelian_system, arbitrary_set_system, check_schema,
    check_translation_theorem, eval_modal, fork_system, frame_properties,
    search_dot3_counterexample,
)


def test_criterion_01_axiom_suite_on_truncations():
    """FA axioms pass on the canonical truncations with a 20-formula
    induction corpus."""
    corpus = load_packaged_formulas("induction20.fml")
    assert len(corpus) >= 20
    for n in (1, 2, 3, 5, 9, 12, 100, 1000, 10**6):
        report = check_fa_axioms(make_truncation(n), corpus)
        assert report.passed, (n, report.failures())


def test_criterion_02_digit_arithmetic_oracle_equivalence():
    """Digit ops match big-integer arithmetic: exhaustive for b <= 5,
    k <= 4; 10^5 random pairs for b = 10, k = 5."""
    for b in (2, 3, 4, 5):
        for k in (2, 3, 4):
            mp = InterpretedModel(make_truncation(b * b), b, k)
            size = b**k
            elems = [mp.element(v) for v in range(size)]
            for x in range(size):
                ex = elems[x]
                for y in range(size):
                    s = mp.plus(ex, elems[y])
                    assert (s is None) == (x + y >= size)
                    assert s is None or mp.valuation(s) == x + y
                    p = mp.times(ex, elems[y])
                    assert (p is None) == (x * y >= size)
                    assert p is None or mp.valuation(p) == x * y

    mp = InterpretedModel(make_truncation(100), 10, 5)
    rng = random.Random(0)
    size = 10**5
    for _ in range(10**5):
        x, y = rng.randrange(size), rng.randrange(size)
        s = mp.plus(mp.element(x), mp.element(y))
        assert (s is None) == (x + y >= size)
        assert s is None or mp.valuation(s) == x + y
        p = mp.times(mp.element(x), mp.element(y))
        assert (p is None) == (x * y >= size)
        assert p is None or mp.valuation(p) == x * y


def test_criterion_03_lift_isomorphic_and_stage1_total():
    """For every n in [9, 200]: the lift matches the truncation at
    b^k - 1 on all ground pairs, N^2 is defined upstairs, and every ground
    sum and product is defined at stage 1."""
    for n in range(9, 201):
        m = make_truncation(n)
        mp = build_plus_model(m)
        b = largest_square_base(m)
        assert mp.valuation(mp.largest) == b**5 - 1
        assert b**5 - 1 >= n * n
        e = embed_initial(m, mp)
        imgs = [e(x) for x in range(n + 1)]
        val = mp.valuation
        top = imgs[n]
        sq = mp.times(top, top)
        assert sq is not None and val(sq) == n * n
        for x in range(n + 1):
            ex = imgs[x]
            for y in range(x, n + 1):
                ey = imgs[y]
                s = mp.plus(ex, ey)
                assert s is not None and val(s) == x + y
                assert mp.plus(ey, ex) == s
                p = mp.times(ex, ey)
                assert p is not None and val(p) == x * y
                assert mp.times(ey, ex) == p


def test_criterion_04_embedding_checks():
    """Embedding image downward closed, order and operations preserved,
    exhaustive for n <= 200."""
    for n in list(range(9, 30)) + [50, 100, 144, 200]:
        m = make_truncation(n)
        mp = build_plus_model(m)
        e = embed_initial(m, mp)
        imgs = [e(x) for x in range(n + 1)]
        # Downward closure: everything lexically below an image is an image.
        image_set = set(imgs)
        for x in range(n + 1):
            below = imgs[x]
            count = sum(1 for s in mp.iter_below(below))
            assert count == x  # exactly the images of 0..x-1 sit below
        for x in range(n + 1):
            if x < n:
                assert mp.succ(imgs[x]) == imgs[x + 1]
            for y in range(n + 1):
                assert m.less(x, y) == mp.less(imgs[x], imgs[y])
                s = m.plus(x, y)
                if s is not None:
                    assert mp.plus(imgs[x], imgs[y]) == imgs[s]
                p = m.times(x, y)
                if p is not None:
                    assert mp.times(imgs[x], imgs[y]) == imgs[p]
        assert imgs[0] == mp.zero
        assert all(s in image_set for s in mp.iter_below(imgs[n]))


def test_criterion_05_in_model_purity():
    """During construction and use of the lifted model, the ground model is
    never asked for an operation with an operand >= b."""
    for n in (100, 150):
        raw = make_truncation(n)
        b = largest_square_base(raw)
        instr = InstrumentedStructure(raw)
        mp = build_plus_model(instr, base=b)
        # Exercise every digit algorithm so all lazy tables fill in.
        rng = random.Random(1)
        for _ in range(200):
            x, y = rng.randrange(mp.size()), rng.randrange(mp.size())
            mp.plus(mp.element(x), mp.element(y))
            mp.times(mp.element(x), mp.element(y))
            mp.succ(mp.element(x))
        assert instr.requests
        assert instr.all_operands_below(b)


def test_criterion_06_tower_heights_and_limit_eval():
    """Tower over the truncation at 12: heights 12, 242, 759374 with
    squared growth; times(12, 12) first defined at stage 1 with value 144."""
    tower = build_tower(make_truncation(12), 2)
    assert tower.heights == [12, 242, 759374]
    for cur, nxt in zip(tower.heights, tower.heights[1:]):
        assert nxt >= cur * cur
    r = limit_eval(tower, "times", 12, 12)
    assert (r.value, r.stage) == (144, 1)


def test_criterion_07_bounded_induction_suite():
    """Every bounded corpus formula's induction instance holds at every
    stage; closed bounded sentences with in-range bounds agree across
    consecutive stages."""
    tower = build_tower(make_truncation(12), 2)
    corpus = load_packaged_formulas("delta0.fml")
    report = check_bounded_induction(tower, corpus)
    assert report.passed, report.failures
    stages_covered = {i for i, _, _ in report.induction}
    assert stages_covered == {0, 1, 2}
    assert any(ok for (_, _, _, _, in_range, ok) in report.absoluteness if in_range)


def test_criterion_08_exponentiation_absence():
    """Stage 1 of the 12-tower contains 18 but not 2^18 = 262144: stages do
    not close under exponentiation."""
    tower = build_tower(make_truncation(12), 2)
    stage1 = tower.stages[1]
    assert stage1.size() == 243  # heights 0..242
    assert 18 <= tower.heights[1]
    assert 2**18 == 262144 > tower.heights[1]
    # 18 is an element of stage 1; 262144 has no element there.
    assert stage1.valuation(stage1.element(18)) == 18
    with pytest.raises(DomainError):
        stage1.element(262144)


def test_criterion_09_frame_classification():
    assert frame_properties(aristotelian_system(30)).classification == "linear/S4.3"
    for h in (1, 2, 3):
        report = frame_properties(arbitrary_set_system(h))
        assert report.directed and not report.linear
        assert report.classification == "directed/S4.2"
    fork = frame_properties(fork_system())
    assert not fork.directed and not fork.linear
    assert fork.classification == "preorder/S4"


def test_criterion_10_schema_checks():
    """K/T/Four/Dot2 hold over the instance corpus on both canonical
    systems; Dot3 holds on the linear system and fails on arbitrary-set
    potentialism with the definedness pair at the empty world."""
    pairs = load_packaged_pairs("schema_instances.fml")
    assert len(pairs) >= 20
    systems = [aristotelian_system(20), arbitrary_set_system(3)]
    for name in ("K", "T", "Four", "Dot2"):
        for system in systems:
            assert check_schema(system, SCHEMAS[name], pairs) == []
    assert check_schema(aristotelian_system(20), SCHEMAS["Dot3"], pairs) == []

    sub1 = arbitrary_set_system(1)
    witness = search_dot3_counterexample(sub1)
    assert witness is not None  # found within the depth-3 generated pool

    phi = parse_formula("Def(1) & !Def(0)")
    psi = parse_formula("Def(0) & !Def(1)")
    hits = check_schema(sub1, SCHEMAS["Dot3"], [(phi, psi)])
    assert [h.world_id for h in hits] == ["empty"]


def test_criterion_11_translation_theorem():
    """Limit truth equals translated truth at every world on the
    arbitrary-set systems for a closed, N-free corpus of >= 15 sentences."""
    corpus = load_packaged_formulas("translation.fml")
    assert len(corpus) >= 15
    for h in (2, 3, 4, 5):
        system = arbitrary_set_system(h)
        report = check_translation_theorem(system, corpus)
        assert report.passed, (h, report.violations)
        assert len(report.results) == len(corpus)


def test_criterion_12_paper_example_assertions():
    """The successor sentence and its modalizations behave as derived:
    false outright in truncations, true under dia at interior worlds, with
    the finite-system frontier effects exactly where the horizon runs out."""
    succ = parse_formula("A a. E b. b = a + 1")
    for n in (1, 5, 10, 29, 30):
        assert not eval_formula(make_truncation(n), succ, {})

    system = aristotelian_system(30)
    modal_succ = parse_formula("A a. dia E b. b = a + 1")
    for w in range(1, 30):
        assert eval_modal(system, str(w), modal_succ)

    # Sum-and-product possibility: adequate horizon requires w*w <= 30, so
    # the assertion is true exactly at worlds 1..5 of this finite system
    # and first fails at the frontier world 6 (6*6 = 36 has no world).
    sum_prod = parse_formula(
        "A a. A b. dia E c. E d. (Plus(a, b, c) & Times(a, b, d))"
    )
    for w in range(1, 6):
        assert eval_modal(system, str(w), sum_prod), w
    assert not eval_modal(system, "6", sum_prod)

    # A prime above any a < m: adequate for m <= 15 by Bertrand's postulate
    # (a prime in (a, 2a) with 2a - 1 <= 29 <= horizon 30).
    prime_above = parse_formula(
        "A a < N. dia E p. (a < p & 1 < p"
        " & A d < p. A e < p. ((1 < d & 1 < e) -> !Times(d, e, p)))"
    )
    for m in range(1, 16):
        assert eval_modal(system, str(m), prime_above), m


def test_criterion_13_cli_determinism():
    """Same seed, same bytes: repeated runs agree after timing redaction."""
    cases = [
        ["--format", "json", "axioms", "--n", "12"],
        ["--format", "json", "tower", "--n", "12", "--stages", "2"],
        ["--format", "json", "frame", "--subsets", "2"],
        ["--format", "json", "validate", "--subsets", "1", "--schema", "dot3", "--search"],
    ]

    def run(argv):
        buf = io.StringIO()
        main(argv, out=buf)
        record = json.loads(buf.getvalue())
        record["timings"] = {}
        return json.dumps(record, sort_keys=True)

    for argv in cases:
        assert run(argv) == run(argv)

"""The depth contract: every public function that takes a term or formula
reports input nested too deeply as an EvalError caused by the
RecursionError, with the message of its kind of input."""
import pytest

from finarith.core import check_fa_axioms, induction_fails, make_truncation
from finarith.errors import EvalError
from finarith.interp import (
    build_plus_model, build_tower, check_bounded_induction, verify_induction_lex,
)
from finarith.logic import (
    Const0, Eq, Forall, Not, Succ, Var, _decide, eval_formula, eval_term, free_variables,
    induction_instance, print_formula, print_term, substitute,
)
from finarith.modal import (
    SCHEMAS, aristotelian_system, check_schema, check_translation_theorem, eval_modal,
    potentialist_translation,
)

DEPTH = 3000


def deep_term():
    t = Const0()
    for _ in range(DEPTH):
        t = Succ(t)
    return t


def deep_formula(var=None):
    """A fresh chain of DEPTH negations over an equation, open in var when
    var is given; fresh, so no compiled closure is kept from another case."""
    atom = Var(var) if var else Const0()
    f = Eq(atom, atom)
    for _ in range(DEPTH):
        f = Not(f)
    return f


ENTRY_POINTS = {
    "eval_term": ("term", lambda: eval_term(make_truncation(3), deep_term(), {})),
    "print_term": ("term", lambda: print_term(deep_term())),
    "eval_formula": ("formula", lambda: eval_formula(make_truncation(3), deep_formula())),
    "_decide": ("formula", lambda: _decide(
        make_truncation(3), Forall("x", None, deep_formula("x")), {}, None)),
    "free_variables": ("formula", lambda: free_variables(deep_formula("x"))),
    "free_variables-term": ("term", lambda: free_variables(deep_term())),
    "print_formula": ("formula", lambda: print_formula(deep_formula())),
    "substitute": ("formula", lambda: substitute(deep_formula("x"), "x", Const0())),
    "substitute-term": ("term", lambda: substitute(deep_term(), "x", Const0())),
    "induction_instance": ("formula", lambda: induction_instance(deep_formula("x"), "x")),
    "decide": ("formula", lambda: aristotelian_system(3).decide("1", deep_formula())),
    "eval_modal": ("formula", lambda: eval_modal(aristotelian_system(3), "1", deep_formula())),
    "check_schema": ("formula", lambda: check_schema(
        aristotelian_system(3), SCHEMAS["T"], [(deep_formula(), None)])),
    "check_translation_theorem": ("formula", lambda: check_translation_theorem(
        aristotelian_system(3), [deep_formula()])),
    "potentialist_translation": ("formula", lambda: potentialist_translation(deep_formula())),
    "induction_fails": ("formula", lambda: induction_fails(
        make_truncation(3), deep_formula("x"), "x", list(range(4)))),
    "check_fa_axioms": ("formula", lambda: check_fa_axioms(
        make_truncation(3), [deep_formula("x")])),
    "check_bounded_induction": ("formula", lambda: check_bounded_induction(
        build_tower(make_truncation(12), 1), [deep_formula("x")])),
    "verify_induction_lex": ("formula", lambda: verify_induction_lex(
        build_plus_model(make_truncation(12)), deep_formula("x"))),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_deep_input_is_an_eval_error_caused_by_the_overflow(name):
    noun, call = ENTRY_POINTS[name]
    with pytest.raises(EvalError, match=f"^{noun} is nested too deeply$") as info:
        call()
    assert isinstance(info.value.__cause__, RecursionError)

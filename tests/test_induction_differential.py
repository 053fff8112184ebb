"""The induction scan against the definitional oracle.

Given every element of a structure, ``core.induction_fails`` must agree
with evaluating the whole instance that ``logic.induction_instance`` builds,
[phi(0) & A x < N. (phi -> phi(x+1))] -> A x. phi, on honest models, on
structures whose successor misbehaves, and where 0 and N do not denote.
"""
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_core import LoopingSuccessor
from test_modal_differential import VARS, atoms, terms

from finarith.core import (
    Truncation, check_fa_axioms, induction_fails, make_subset_world, make_truncation,
)
from finarith.corpus import load_packaged_formulas
from finarith.interp import InterpretedModel
from finarith.logic import (
    And, Exists, Forall, Implies, Not, Or, eval_formula, free_variables,
    induction_instance, parse_formula, print_formula,
)


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


STRUCTURES = (
    [make_truncation(n) for n in range(1, 13)]
    + [
        InterpretedModel(make_truncation(4), 2, 3),
        InterpretedModel(make_truncation(9), 3, 3),
        LoopingSuccessor(3),
        TopStepsBack(3),
        StepGap(3),
        make_subset_world({1, 2, 3}),  # neither 0 nor N denotes
    ]
)

# The one-variable formulas of the packaged corpora, and two that tell an
# undefined 1 + 1 (StepGap) and an undefined 0 (the subset world) from
# defined ones.
CORPUS = [
    phi
    for name in ("induction20.fml", "delta0.fml")
    for phi in load_packaged_formulas(name)
    if free_variables(phi) == {"x"}
] + [parse_formula("x = 0 | x = 1"), parse_formula("!(x = 1)")]


def instance_fails(m, phi):
    return not eval_formula(m, induction_instance(phi, "x"), {})


@pytest.mark.parametrize("m", STRUCTURES, ids=lambda m: f"{type(m).__name__}:{m!r}")
def test_corpus_scan_matches_the_instance(m):
    for phi in CORPUS:
        assert induction_fails(m, phi, "x", list(m)) == instance_fails(m, phi), print_formula(phi)


@lru_cache(maxsize=None)
def first_order(scope, depth):
    """First-order formulas whose free variables lie in scope."""
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
        atoms(scope), st.builds(Not, sub),
        st.builds(And, sub, sub), st.builds(Or, sub, sub), st.builds(Implies, sub, sub),
        st.sampled_from(VARS).flatmap(quantified),
    )


@settings(max_examples=150, deadline=None)
@given(first_order(frozenset({"x"}), 2).filter(lambda f: free_variables(f) == {"x"}))
def test_generated_scan_matches_the_instance(phi):
    for m in STRUCTURES:
        assert induction_fails(m, phi, "x", list(m)) == instance_fails(m, phi), (m, print_formula(phi))


def test_no_step_is_taken_at_the_top():
    # phi holds at 0, 1 and N, and each step below N keeps it (0 -> 1,
    # 1 -> 1 + 1 = 1); it fails at 2.  Only the top's successor leads to 2.
    m = TopStepsBack(3)
    phi = parse_formula("x = 0 | x = 1 | x = N")
    assert instance_fails(m, phi)
    assert induction_fails(m, phi, "x", list(m))
    for budget in (0, 10**6):
        report = check_fa_axioms(m, [phi], budget=budget)
        assert report.groups["induction"].failures == [
            "induction instance fails for x = 0 | x = 1 | x = N"
        ], budget

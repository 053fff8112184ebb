"""Workbench for arithmetic with a largest number.

Truncation models with partial operations, the taller digit-string model
interpreted inside them, iterated towers with bounded-induction checks, a
first-order/modal formula language, and finite Kripke potentialist systems
with frame classification.
"""

from .core import (
    AxiomReport, PartialStructure, SubsetWorld, Truncation, check_fa_axioms,
    largest_square_base, make_subset_world, make_truncation,
)
from .errors import (
    AdmissibilityError, DomainError, EvalError, FinarithError, ParseError,
    WrongEvaluatorError,
)
from .interp import (
    DigitString, InterpParams, InterpretedModel, Tower, build_plus_model,
    build_tower, check_bounded_induction, embed_initial, limit_eval,
    verify_biinterpretation, verify_induction_lex,
)
from .logic import (
    eval_formula, eval_term, free_variables, induction_instance, is_delta0,
    is_first_order, parse_formula, parse_term, print_formula, print_term,
)
from .modal import (
    FrameReport, ModalSchema, PotentialistSystem, SCHEMAS, aristotelian_system,
    arbitrary_set_system, check_schema, check_translation_theorem, eval_modal,
    fork_system, frame_properties, load_system, potentialist_translation,
    schema_by_name, search_dot3_counterexample,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

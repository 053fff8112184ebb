"""Exception types shared across the package, and the rule for deep input."""
import functools


class FinarithError(Exception):
    """Base class for all package errors."""


class DomainError(FinarithError):
    """An operation was queried with an argument outside the structure's domain.

    Distinct from a defined-domain pair that merely has no value (which is
    reported as None, not an exception).
    """


class ParseError(FinarithError):
    """Formula text does not conform to the grammar."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


class EvalError(FinarithError):
    """Evaluation failed: unassigned variable, wrong arity, and the like."""


def _too_deep(noun):
    """The one rule for input nested too deeply, as a decorator for the public
    functions that recurse over a term or formula: a RecursionError inside
    the call becomes EvalError("<noun> is nested too deeply").  The noun is
    a string, or a function that names the call's first argument."""
    def guard(fn):
        @functools.wraps(fn)
        def guarded(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except RecursionError as exc:
                name = noun if isinstance(noun, str) else noun(args[0])
                raise EvalError(f"{name} is nested too deeply") from exc
        return guarded
    return guard


class WrongEvaluatorError(FinarithError):
    """A modal node reached the first-order evaluator; use the modal module."""


class AdmissibilityError(FinarithError):
    """Digit-string parameters (b, k) cannot host the ground model's squares."""

    def __init__(self, message, minimal_width=None):
        super().__init__(message)
        self.minimal_width = minimal_width

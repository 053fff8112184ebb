"""The structural helpers reproduce recorded outputs on the generated corpus.

``tests/golden/structure.json`` holds, for each formula of
``test_properties._generated_corpus()``, its sorted free variables, the
first-order, Delta_0 and constant-N tests, the printed substitution of
``y + 1`` for ``x`` (first-order formulas only) and the printed potentialist
translation or the name of the error it raises.  Regenerate it with
``PYTHONPATH=src:tests python tests/test_structure.py > tests/golden/structure.json``
only when a change of those outputs is intended.
"""
import json
import pathlib
import sys

from test_properties import _generated_corpus

from finarith.errors import FinarithError
from finarith.logic import (
    contains_constN, free_variables, is_delta0, is_first_order, parse_formula,
    parse_term, print_formula, substitute,
)
from finarith.modal import potentialist_translation

GOLDEN = pathlib.Path(__file__).parent / "golden" / "structure.json"


def structure_record(text):
    f = parse_formula(text)
    first_order = is_first_order(f)
    try:
        translation = print_formula(potentialist_translation(f))
    except FinarithError as exc:
        translation = type(exc).__name__
    return {
        "formula": print_formula(f),
        "free_variables": sorted(free_variables(f)),
        "first_order": first_order,
        "delta0": is_delta0(f),
        "contains_N": contains_constN(f),
        "substitute": (
            print_formula(substitute(f, "x", parse_term("y + 1"))) if first_order else None
        ),
        "translation": translation,
    }


def test_structural_helpers_match_recorded_outputs():
    expected = json.loads(GOLDEN.read_text())
    got = [structure_record(text) for text in _generated_corpus()]
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g == e


if __name__ == "__main__":
    records = [json.dumps(structure_record(t)) for t in _generated_corpus()]
    sys.stdout.write("[\n" + ",\n".join(records) + "\n]\n")

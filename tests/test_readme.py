"""The README "Library tour" runs, and each value its comments state holds.

A renamed public name, or a change of a value the tour shows, fails here.
"""
import pathlib
import re

README = pathlib.Path(__file__).parent.parent / "README.md"

# Each tour expression with the value its comment states, as the comment
# starts: the repr of the value.
STATED = [
    ("m.plus(40, 50)", 90),
    ("m.times(40, 50)", None),
    ("mp.valuation(s)", 1023),
    ("s.as_string()", "01023"),
    ("tower.heights", [12, 242, 759374]),
    ("eval_formula(m, f, {})", False),
    ('eval_modal(system, "10", parse_formula("A a. dia E b. b = a + 1"))', True),
    ("print_formula(potentialist_translation(f))", "box A a. dia E b. b = a + 1"),
]


def tour():
    """The tour's code, and each line's comment keyed by the line's code; a
    comment on a line of its own belongs to the line just above when that
    line is code without a comment."""
    code = re.search(r"## Library tour\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)
    comments = {}
    above = None
    for line in code.splitlines():
        text, _, comment = line.partition("#")
        text = text.strip()
        if comment and (text or above):
            comments[text or above] = comment.strip()
        above = text if text and not comment else None
    return code, comments


def test_library_tour_states_its_values():
    code, comments = tour()
    ns = {}
    exec(compile(code, str(README), "exec"), ns)
    for expr, value in STATED:
        assert comments[expr].startswith(repr(value)), expr
        assert eval(expr, ns) == value, expr

    assert "99999" in comments["mp = build_plus_model(m)"]
    assert ns["mp"].valuation(ns["mp"].largest) == 99999

    assert comments['limit_eval(tower, "times", 12, 12)'] == "value 144, first defined at stage 1"
    limit = eval('limit_eval(tower, "times", 12, 12)', ns)
    assert (limit.value, limit.stage) == (144, 1)

"""Property-based checks: oracle equalities and algebraic laws."""
import functools
import importlib.util
import operator
import pathlib
import random
import re
from importlib.resources import files

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from finarith.core import SubsetWorld, Truncation, make_truncation
from finarith.corpus import load_packaged_formulas, load_packaged_pairs
from finarith.interp import InterpretedModel, build_plus_model
from finarith.errors import ParseError
from finarith.logic import (
    Term, Var, _nodes, eval_formula, eval_term, free_variables, parse_formula, parse_term,
    print_formula, print_term, substitute,
)
from finarith.modal import (
    SCHEMAS, check_schema, check_translation_theorem, frame_properties, load_system,
    search_dot3_counterexample,
)

# bench/oracles.py, loaded by path: the definitional Kripke semantics, with
# its own parser and arithmetic and no finarith import, that the frame and
# modal checks judge the library by.
_spec = importlib.util.spec_from_file_location(
    "bench_oracles", pathlib.Path(__file__).parent.parent / "bench" / "oracles.py"
)
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)

heights = st.integers(min_value=1, max_value=60)


@given(n=heights, a=st.integers(min_value=0, max_value=60), b=st.integers(min_value=0, max_value=60))
def test_truncation_oracle_equality(n, a, b):
    m = make_truncation(n)
    a, b = min(a, n), min(b, n)
    assert m.plus(a, b) == (a + b if a + b <= n else None)
    assert m.times(a, b) == (a * b if a * b <= n else None)


@given(n=heights, a=st.integers(min_value=0, max_value=60), b=st.integers(min_value=0, max_value=60))
def test_kleene_commutativity(n, a, b):
    m = make_truncation(n)
    a, b = min(a, n), min(b, n)
    assert m.plus(a, b) == m.plus(b, a)
    assert m.times(a, b) == m.times(b, a)


@given(
    n=heights,
    a=st.integers(min_value=0, max_value=30),
    b=st.integers(min_value=0, max_value=30),
    c=st.integers(min_value=0, max_value=30),
)
def test_kleene_associativity(n, a, b, c):
    m = make_truncation(n)
    a, b, c = min(a, n), min(b, n), min(c, n)

    def chain(x, y, z):
        s = m.plus(x, y)
        return None if s is None else m.plus(s, z)

    left = chain(a, b, c)
    s = m.plus(b, c)
    right = None if s is None else m.plus(a, s)
    # On truncations both groupings have the same definedness pattern.
    assert left == right


@given(n=st.integers(min_value=0, max_value=60), m_=st.integers(min_value=0, max_value=60), h=heights)
def test_downward_definedness(n, m_, h):
    m = make_truncation(h)
    a, b = min(n, h), min(m_, h)
    if m.plus(a, b) is not None:
        for a2 in (0, a // 2, a):
            for b2 in (0, b // 2, b):
                assert m.plus(a2, b2) is not None


@settings(deadline=None)
@given(
    b=st.integers(min_value=2, max_value=6),
    k=st.integers(min_value=2, max_value=4),
    data=st.data(),
)
def test_digit_ops_against_valuation_oracle(b, k, data):
    mp = InterpretedModel(make_truncation(b * b), b, k)
    size = b**k
    x = data.draw(st.integers(min_value=0, max_value=size - 1))
    y = data.draw(st.integers(min_value=0, max_value=size - 1))
    ex, ey = mp.element(x), mp.element(y)
    s = mp.plus(ex, ey)
    assert (s is None) == (x + y >= size)
    if s is not None:
        assert mp.valuation(s) == x + y
    p = mp.times(ex, ey)
    assert (p is None) == (x * y >= size)
    if p is not None:
        assert mp.valuation(p) == x * y
    assert mp.less(ex, ey) == (x < y)


# --- formula-language properties over a generated corpus ---

def _generated_corpus(count=200, seed=7):
    """A deterministic pool of printable formulas over a tiny grammar."""
    rng = random.Random(seed)
    variables = ["x", "y", "z"]
    terms = ["0", "1", "N", "x", "y", "S(x)", "x + 1", "x * y", "(x + y) * z", "S(x + y)"]

    def formula(depth):
        if depth == 0:
            kind = rng.choice(["eq", "lt", "def", "plus", "times"])
            t1, t2, t3 = (rng.choice(terms) for _ in range(3))
            if kind == "eq":
                return f"{t1} = {t2}"
            if kind == "lt":
                return f"{t1} < {t2}"
            if kind == "def":
                return f"Def({t1})"
            if kind == "plus":
                return f"Plus({t1}, {t2}, {t3})"
            return f"Times({t1}, {t2}, {t3})"
        kind = rng.choice(["not", "and", "or", "implies", "forall", "exists", "dia", "box"])
        if kind == "not":
            return f"!({formula(depth - 1)})"
        if kind in ("and", "or", "implies"):
            op = {"and": "&", "or": "|", "implies": "->"}[kind]
            return f"({formula(depth - 1)}) {op} ({formula(depth - 1)})"
        if kind in ("dia", "box"):
            return f"{kind} ({formula(depth - 1)})"
        q = "A" if kind == "forall" else "E"
        v = rng.choice(variables)
        bound = f" < {rng.choice(['N', '1 + 1 + 1'])}" if rng.random() < 0.5 else ""
        return f"{q} {v}{bound}. {formula(depth - 1)}"

    return [formula(rng.randrange(3)) for _ in range(count)]


def test_parser_round_trip_on_generated_corpus():
    for text in _generated_corpus():
        ast = parse_formula(text)
        printed = print_formula(ast)
        assert parse_formula(printed) == ast, text


_TOKEN = re.compile(r"\s*(->|[()+*=<!&|.,]|[A-Za-z][A-Za-z0-9_]*|[01])")
_ALPHABET = "( ) + * = < ! & | -> . , 0 1 N S Def Plus Times A E dia box x y".split()


def _packaged_texts():
    """The formulas of every packaged corpus as written, one text each."""
    for path in sorted((files("finarith") / "corpora").iterdir(), key=lambda p: p.name):
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.split("#", 1)[0].strip()
            if line:
                yield from (part.strip() for part in line.split(";"))


def _mutations(texts, per=30, seed=19):
    """Each text, then per seeded one-token mutations of it: a token
    deleted, inserted or replaced."""
    rng = random.Random(seed)
    for text in texts:
        yield text
        tokens = _TOKEN.findall(text)
        for _ in range(per):
            t = list(tokens)
            kind = rng.choice(("delete", "insert", "replace"))
            i = rng.randrange(len(t) + (kind == "insert"))
            if kind == "delete":
                del t[i]
            elif kind == "insert":
                t.insert(i, rng.choice(_ALPHABET))
            else:
                t[i] = rng.choice(_ALPHABET)
            yield " ".join(t)


def test_parser_agrees_with_the_oracle_on_mutated_corpora():
    # Every input is either rejected with a position or read as the
    # independent parser of bench/oracles.py reads it, and printed text
    # reads back the same there.  The check runs one way only: the
    # oracle's parser is looser (it takes "E !. x = 0" and "Def(x, y)").
    formulas = list(_generated_corpus()) + list(_packaged_texts())
    terms = sorted({
        print_term(t)
        for text in formulas for t in _nodes(parse_formula(text)) if isinstance(t, Term)
    })
    read = {"formulas": 0, "terms": 0}
    for text in _mutations(formulas + terms):
        try:
            f = parse_formula(text)
        except ParseError as exc:
            assert exc.position is not None, text
        else:
            read["formulas"] += 1
            assert oracles.parse(text) == oracles.parse(print_formula(f)), text
        try:
            t = parse_term(text)
        except ParseError as exc:
            assert exc.position is not None, text
        else:
            read["terms"] += 1
            assert oracles.parse(f"({text}) = 0") == oracles.parse(f"({print_term(t)}) = 0"), text
    # Every seed is read, and some mutations too: the check is not vacuous.
    assert read["formulas"] > len(formulas) and read["terms"] > len(terms)


def test_substitution_lemma():
    m = make_truncation(12)
    rng = random.Random(3)
    corpus = [
        "x = y", "x < y + 1", "Def(x + x)", "Plus(x, y, z)",
        "E y. y = x + 1", "A y < N. (x < y | y < x | x = y)",
        "x * x = y -> x < y",
    ]
    terms = ["0", "1", "y + 1", "S(0)", "z"]
    for _ in range(120):
        f = parse_formula(rng.choice(corpus))
        t = parse_term(rng.choice(terms))
        env = {v: rng.randrange(6) for v in ("x", "y", "z")}
        tv = eval_term(m, t, dict(env))
        if tv is None:
            continue
        direct = eval_formula(m, substitute(f, "x", t), dict(env))
        extended = eval_formula(m, f, {**env, "x": tv})
        assert direct == extended, (print_formula(f), print_formula(t), env)


def test_definedness_atom_coherence():
    models = [make_truncation(5), make_truncation(12)]
    terms = ["0", "1", "N", "N + 1", "x + x", "x * x", "S(x)"]
    for m in models:
        for text in terms:
            t = parse_term(text)
            for x in range(m.size()):
                env = {"x": x}
                want = eval_term(m, t, dict(env)) is not None
                got = eval_formula(m, parse_formula(f"Def({text})"), dict(env))
                assert got == want


def test_bounded_unbounded_agreement():
    # A Delta_0 bounded quantifier agrees with an unbounded quantifier
    # guarded by the bound atom, when the bound is defined.
    m = make_truncation(12)
    cases = [
        ("A x < N. Def(x + 1)", "A x. (x < N -> Def(x + 1))"),
        ("E x < N. x * x = x", "E x. (x < N & x * x = x)"),
        ("A x < 1 + 1 + 1. A y < 1 + 1 + 1. (x < y | y < x | x = y)",
         "A x. (x < 1 + 1 + 1 -> A y. (y < 1 + 1 + 1 -> (x < y | y < x | x = y)))"),
    ]
    for bounded, guarded in cases:
        assert eval_formula(m, parse_formula(bounded), {}) == eval_formula(m, parse_formula(guarded), {})


def test_plus_model_element_valuation_inverse():
    mp = build_plus_model(make_truncation(50))
    rng = random.Random(0)
    for _ in range(200):
        v = rng.randrange(mp.size())
        assert mp.valuation(mp.element(v)) == v


# --- random potentialist systems ---

@st.composite
def subset_families(draw):
    """(domains, access pairs) of at most four subset worlds over {0..3}.
    Half the draws take access along domain inclusion, a valid system; a
    world holding every other world's elements makes its frame directed.
    The rest take random pairs, some closed reflexively, some transitively,
    with some domains grown by every domain below them."""
    masks = draw(st.lists(st.integers(0, 15), min_size=1, max_size=4, unique=True))
    if len(masks) < 4 and draw(st.booleans()):
        masks.append(functools.reduce(operator.or_, masks))
    domains = [{x for x in range(4) if mask >> x & 1} for mask in masks]
    n = len(domains)
    if draw(st.booleans()):
        return domains, {(i, j) for i in range(n) for j in range(n) if domains[i] <= domains[j]}
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    if draw(st.booleans()):
        pairs |= {(i, i) for i in range(n)}
    if draw(st.booleans()):
        for k in range(n):  # Warshall
            pairs |= {(i, j) for i in range(n) for j in range(n)
                      if (i, k) in pairs and (k, j) in pairs}
    if draw(st.booleans()):
        for _ in range(n):  # along paths, so only the pairs decide validity
            domains = [
                set().union(d, *(domains[i] for i in range(n) if (i, j) in pairs))
                for j, d in enumerate(domains)
            ]
    return domains, pairs


def oracle_frame(domains, pairs):
    """The oracle's frame of a drawn family, built from its own domains and
    access pairs: world i is domains[i], with id str(i)."""
    n = len(domains)
    return oracles.Frame(
        [oracles.subset_world(d) for d in domains],
        [str(i) for i in range(n)],
        [sorted(j for i, j in pairs if i == k) for k in range(n)],
    )


@settings(max_examples=60, deadline=None)
@given(subset_families())
def test_random_systems_match_the_frame_definitions(family):
    domains, pairs = family
    n = len(domains)
    up = [{j for j in range(n) if (i, j) in pairs} for i in range(n)]
    # Subset worlds carry the true + and * of their elements, so domain
    # inclusion along access is all the extension condition asks.
    valid = (
        all(i in up[i] for i in range(n))
        and all(up[j] <= up[i] for i in range(n) for j in up[i])
        and all(domains[i] <= domains[j] for i, j in pairs)
    )
    try:
        system = load_system([SubsetWorld(d) for d in domains], [str(i) for i in range(n)], pairs)
    except ValueError:
        assert not valid
        return
    assert valid

    # A valid system is a preorder, the frames frame_class is defined for.
    directed, linear = oracles.frame_class(oracle_frame(domains, pairs))
    report = frame_properties(system)
    assert (report.directed, report.linear) == (directed, linear)
    if linear:
        assert search_dot3_counterexample(system, generator_budget=50) is None
    if directed:
        assert check_schema(system, SCHEMAS["Dot2"], load_packaged_pairs("schema_instances.fml")) == []


@settings(max_examples=40, deadline=None)
@given(subset_families())
def test_translation_theorem_on_random_convergent_systems(family):
    # The limit is the union of the worlds: a truncation when that is an
    # initial segment {0..h} with 1 in it, a subset world otherwise.
    domains, pairs = family
    union = set().union(*domains)
    h = max(union, default=0)
    limit = Truncation(h) if h >= 1 and union == set(range(h + 1)) else SubsetWorld(union)
    ids = [str(i) for i in range(len(domains))]
    try:
        system = load_system([SubsetWorld(d) for d in domains], ids, pairs, limit=limit)
    except ValueError:
        assume(False)
    report = check_translation_theorem(system, load_packaged_formulas("translation.fml"))
    assert report.passed, report.violations

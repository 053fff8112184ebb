"""Finite potentialist systems and Kripke semantics for the modal operators.

A system is a finite family of partial structures (worlds) with a reflexive,
transitive accessibility relation along which domains and operation graphs
grow.  dia phi holds at a world when phi holds at some accessible world;
box phi when it holds at all of them.  Quantifiers range over the current
world; individuals are rigid, so a witness found here still exists in every
larger world.  Everything but dia/box is evaluated by the compiled
closures of ``logic``.  dia/box follow the rule of E/A there, over
accessible worlds instead of elements: a compiled dia/box hands its body
to the system's modal callback, which returns the deciding world's index,
or None, as the binder scan returns the deciding element.

The system decides dia/box by global labeling (Clarke, Emerson & Sistla,
TOPLAS 8(2), 1986): the label of a formula under values of its free
variables is a pair of int masks over world indices (bit j for world j),
where it has been evaluated and where it holds.  A dia/box reads its
body's label against the access mask of its world, evaluating the body
only at the accessible worlds its label lacks, in index order, up to the
first deciding one.  A closed formula's connectives and dia/box compose
the labels of their parts, so schema instances and translated sentences
are labeled as real formulas, by mask algebra; the frame classes are read
from the access masks and their converses.
"""
from __future__ import annotations

import itertools
from functools import cache, partial
from typing import NamedTuple

from .core import SubsetWorld, Truncation
from .errors import DomainError, EvalError, _too_deep
from .logic import (
    And, Const0, Const1, Defined, Eq, Exists, Forall, Implies, Lt,
    Necessarily, Not, Or, Possibly, _code, _free_vars, _rebuild,
    contains_constN, eval_formula, free_variables, is_first_order,
    print_formula,
)


class PotentialistSystem:
    """Worlds, accessibility, an optional designated limit structure, and
    Kripke evaluation over them.

    ``access[i]`` is the frozenset of indices reachable from world i
    (including i itself once validated reflexive).  Worlds are addressed by
    index or by their string id.  Atoms, connectives and quantifiers run
    through the compiled closures of ``logic`` at the world being
    evaluated; the system decides only dia/box, by labels (see the module
    docstring).  ``_labels`` maps (formula, values of its free variables in
    sorted order) to its two masks.  A body with free variables is labeled
    only at worlds reachable from the querying world, where the individuals
    assigned to it exist.  _label gives a closed formula's label at every
    world, composed for connectives and dia/box.  Each evaluation is handed
    _fill bound to its own world as the modal callback, so queries may
    nest: a world's operations may themselves query the system.
    """

    def __init__(self, worlds, ids, access, limit=None, validate=True):
        if len(worlds) != len(ids):
            raise ValueError("one id per world required")
        self.worlds = list(worlds)
        self.ids = list(ids)
        self._id_index = {wid: i for i, wid in enumerate(self.ids)}
        if len(self._id_index) != len(self.ids):
            raise ValueError("world ids must be distinct")
        self.access = [frozenset(s) for s in access]
        self.limit = limit
        if validate:
            self.validate()
        self._reach = [sum(1 << j for j in s) for s in self.access]
        self._everywhere = (1 << len(self.worlds)) - 1
        self._labels = {}

    def resolve(self, world):
        """Accept an index or an id; return the index."""
        if isinstance(world, int) and not isinstance(world, bool):
            if not 0 <= world < len(self.worlds):
                raise DomainError(f"world index {world} out of range")
            return world
        i = self._id_index.get(world)
        if i is None:
            raise DomainError(f"unknown world id {world!r}")
        return i

    def validate(self):
        """Check that the system is a potentialist system; raise ValueError
        at the first failure.  The checks, in the order a failure is
        reported: every access set holds int indices in range (a bool is no
        index), and accessibility is reflexive and transitive (world by
        world, in index order); then, for each world i in index order and
        each j != i it reaches, in set order, world j keeps every element of
        i (extension) and agrees with every sum and product defined in i,
        pair by pair in i's order, the sum before the product; then, when a
        limit is given, convergence (see _validate_convergence).

        Cost: world i's defined graph, the entries (a, b, a + b, a * b) of
        its pairs with a defined sum or product, is read once, the first
        time i reaches some j != i, and each such j is asked only for the
        results defined in i.  So the graph check asks |i|**2 sums and
        products of each world i that reaches another, and one request per
        defined result of i of each world i reaches."""
        n = len(self.worlds)
        for i, s in enumerate(self.access):
            if any(type(j) is not int or not 0 <= j < n for j in s):
                raise ValueError(f"access set of world {self.ids[i]} out of range")
            if i not in s:
                raise ValueError(f"accessibility is not reflexive at {self.ids[i]}")
            for j in s:
                if not self.access[j] <= s:
                    raise ValueError(
                        f"accessibility is not transitive at {self.ids[i]} -> {self.ids[j]}"
                    )
        for i, s in enumerate(self.access):
            u = self.worlds[i]
            graph = None
            for j in s:
                if j == i:
                    continue
                v = self.worlds[j]
                for x in u:
                    if x not in v:
                        raise ValueError(
                            f"world {self.ids[j]} does not extend {self.ids[i]}: lost {x!r}"
                        )
                if graph is None:
                    graph = []
                    for a in u:
                        for b in u:
                            s_u, p_u = u.plus(a, b), u.times(a, b)
                            if s_u is not None or p_u is not None:
                                graph.append((a, b, s_u, p_u))
                for a, b, s_u, p_u in graph:
                    if s_u is not None and v.plus(a, b) != s_u:
                        raise ValueError(
                            f"plus graph not preserved from {self.ids[i]} to {self.ids[j]}"
                        )
                    if p_u is not None and v.times(a, b) != p_u:
                        raise ValueError(
                            f"times graph not preserved from {self.ids[i]} to {self.ids[j]}"
                        )
        if self.limit is not None:
            self._validate_convergence()

    def _validate_convergence(self):
        lim = self.limit
        for i, u in enumerate(self.worlds):
            for x in u:
                if x not in lim:
                    raise ValueError(
                        f"world {self.ids[i]} is not included in the limit structure"
                    )
            for w in lim:
                if not any(w in self.worlds[j] for j in self.access[i]):
                    raise ValueError(
                        f"no world accessible from {self.ids[i]} accommodates {w!r}"
                    )

    @_too_deep("formula")
    def decide(self, world, f, assignment=None):
        """(truth of f at world, deciding world).  For a dia/box f the
        deciding world is the index of the first accessible world where the
        body holds (dia) or fails (box); otherwise, and when no such world
        exists, it is None.  Labels are kept in the system, so repeated
        calls share the work."""
        i = self.resolve(world)
        a = dict(assignment) if assignment else {}
        for v in _free_vars(f):
            if v not in a:
                raise EvalError(f"unassigned variable {v!r}")
        if isinstance(f, (Possibly, Necessarily)):
            found = self._fill(self._reach[i], f.body, type(f) is Possibly, a)
            return (found is not None) == (type(f) is Possibly), found
        return _code(f)(self.worlds[i], a, partial(self._fill, self._reach[i])), None

    def _fill(self, worlds, f, want, assignment):
        """Evaluate f under assignment at the worlds of the mask worlds that
        its label lacks, in index order, and add them to the label.  With
        want True (dia) or False (box), stop at the first world of worlds
        where f's truth is want, whether labeled before or now, and return
        its index; return None when there is none.  Bound by partial to a
        world's access mask, this is the modal callback of ``logic``."""
        key = f, tuple(map(assignment.__getitem__, _free_vars(f)))
        known, holds = self._labels.get(key, (0, 0))
        found = 0
        if want is not None:
            found = worlds & (holds if want else known & ~holds)
            found &= -found
        todo = worlds & ~known & (found - 1)  # below found; everything when found is 0
        if todo:
            while todo:
                bit = todo & -todo
                j = bit.bit_length() - 1
                truth = _code(f)(self.worlds[j], assignment, partial(self._fill, self._reach[j]))
                known |= bit
                if truth:
                    holds |= bit
                if truth == want:
                    found = bit
                    break
                todo ^= bit
            self._labels[key] = known, holds
        return found.bit_length() - 1 if found else None

    def _label(self, f):
        """The mask of worlds where the closed formula f holds: composed from
        its parts' labels for a connective or dia/box, filled at every world
        for anything else, and kept in _labels either way."""
        key = f, ()
        known, holds = self._labels.get(key, (0, 0))
        everywhere = self._everywhere
        if known == everywhere:
            return holds
        label = self._label
        match f:
            case Not(body):
                holds = everywhere & ~label(body)
            case And(l, r):
                holds = label(l) & label(r)
            case Or(l, r):
                holds = label(l) | label(r)
            case Implies(l, r):
                holds = everywhere & ~label(l) | label(r)
            case Possibly(body):
                holds = self._dia(label(body))
            case Necessarily(body):
                holds = everywhere & ~self._dia(everywhere & ~label(body))
            case _:
                self._fill(everywhere, f, None, {})
                return self._labels[key][1]
        self._labels[key] = everywhere, holds
        return holds

    def _dia(self, mask):
        """The mask of worlds that reach some world of mask."""
        return sum(1 << i for i, reach in enumerate(self._reach) if reach & mask)

    def __repr__(self):
        return f"PotentialistSystem({len(self.worlds)} worlds, limit={self.limit!r})"


# Largest number of access pairs (i, j) a system builder makes: the count of
# arbitrary_set_system(11).  aristotelian_system reaches height 1030.
_PAIR_BUDGET = 3 ** 12


def _check_pair_budget(h, pairs):
    if pairs > _PAIR_BUDGET:
        raise DomainError(f"height {h} exceeds the budget of {_PAIR_BUDGET} access pairs")


def aristotelian_system(h):
    """Initial-segment potentialism: worlds are the truncations at 1..h,
    accessible along end-extension (numeric <=), converging to the
    truncation at h."""
    if h < 1:
        raise ValueError("height must be at least 1")
    _check_pair_budget(h, h * (h + 1) // 2)
    worlds = [Truncation(n) for n in range(1, h + 1)]
    ids = [str(n) for n in range(1, h + 1)]
    access = [frozenset(range(i, h)) for i in range(h)]
    return PotentialistSystem(
        worlds, ids, access, limit=Truncation(h),
        validate=False,  # guaranteed by construction
    )


def _subset_id(elems):
    return "empty" if not elems else ",".join(str(x) for x in elems)


def _supersets(mask, count):
    """The masks below count that contain mask, ascending: (j + 1) | mask
    is the least superset of mask above j."""
    j = mask
    while j < count:
        yield j
        j = (j + 1) | mask


def arbitrary_set_system(h):
    """Arbitrary-set potentialism: one world per subset of {0, ..., h},
    ordered by inclusion, converging to the truncation at h.  The empty
    world is included; its id is "empty"."""
    if h < 0:
        raise ValueError("height must be at least 0")
    # Each subset reaches every superset: 3**(h + 1) pairs.  The exponent is
    # capped where the count already exceeds the budget, so a huge h costs
    # nothing to reject.
    _check_pair_budget(h, 3 ** min(h + 1, 13))
    count = 1 << (h + 1)
    subsets = []
    for mask in range(count):
        subsets.append(tuple(x for x in range(h + 1) if mask >> x & 1))
    worlds = [SubsetWorld(s) for s in subsets]
    ids = [_subset_id(s) for s in subsets]
    access = [frozenset(_supersets(mask, count)) for mask in range(count)]
    return PotentialistSystem(
        worlds, ids, access, limit=Truncation(h) if h >= 1 else SubsetWorld(range(h + 1)),
        validate=False,
    )


def fork_system():
    """A three-world fork: a root extending into two incomparable leaves.
    Reflexive-transitive but neither directed nor linear; classifies as S4
    only."""
    worlds = [SubsetWorld({0}), SubsetWorld({0, 1}), SubsetWorld({0, 2})]
    ids = ["root", "left", "right"]
    pairs = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)]
    return load_system(worlds, ids, pairs)


def load_system(worlds, ids, access_pairs, limit=None):
    """Build a system from an explicit edge list of int index pairs; the
    preorder, extension, and (when a limit is given) convergence conditions
    are validated."""
    n = len(worlds)
    pairs = list(access_pairs)
    for i, j in pairs:
        if not (type(i) is int and type(j) is int and 0 <= i < n and 0 <= j < n):
            raise ValueError(f"access pair ({i}, {j}) out of range for {n} worlds")
    access = [set() for _ in range(n)]
    for i, j in pairs:
        access[i].add(j)
    return PotentialistSystem(worlds, ids, access, limit=limit, validate=True)


def eval_modal(sys, world, f, assignment=None):
    """phi at a world of the system, treating the system as the entire
    universe of worlds."""
    return sys.decide(world, f, assignment)[0]


# --- potentialist translation ---

@_too_deep("formula")
def potentialist_translation(f):
    """Replace every unbounded E with dia E and every unbounded A with
    box A.  Bounded quantifiers already have a local range and are left in
    place (their bodies are still translated)."""
    def go(g):
        match g:
            case Possibly(_) | Necessarily(_):
                raise EvalError("potentialist translation applies to first-order formulas only")
            case Forall(_, None, _):
                return Necessarily(_rebuild(g, go))
            case Exists(_, None, _):
                return Possibly(_rebuild(g, go))
        return _rebuild(g, go)

    return go(f)


class TranslationReport(NamedTuple):
    passed: bool
    results: list  # (formula text, limit truth, {world id: modal truth})
    violations: list
    skipped: list  # formulas containing the constant N (not rigid)


@_too_deep("formula")
def check_translation_theorem(sys, corpus):
    """Compare limit-structure truth of each closed sentence with the truth
    of its potentialist translation at every world, read from its label.
    Requires a convergent system; sentences mentioning N are skipped (N is
    read de dicto per world, so it is not a rigid designator).  The
    translation changes only unbounded quantifiers, so a sentence without
    one, such as the bare closed atom Def(1 + 1), is judged at each world as
    written and can disagree with the limit at a world too small for it."""
    if sys.limit is None:
        raise EvalError("translation theorem requires a system with a limit structure")
    try:
        sys._validate_convergence()
    except ValueError as exc:
        raise EvalError(f"translation theorem requires the convergence condition: {exc}") from exc

    corpus = list(corpus)  # checked, then evaluated: read it once
    results = []
    violations = []
    skipped = []
    for psi in corpus:
        if not is_first_order(psi):
            raise EvalError(f"corpus sentence is not first-order: {print_formula(psi)}")
        if free_variables(psi):
            raise EvalError(f"corpus sentence is not closed: {print_formula(psi)}")
    for psi in corpus:
        text = print_formula(psi)
        if contains_constN(psi):
            skipped.append(text)
            continue
        limit_truth = eval_formula(sys.limit, psi, {})
        holds = sys._label(potentialist_translation(psi))
        per_world = {}
        for i, wid in enumerate(sys.ids):
            t = per_world[wid] = bool(holds >> i & 1)
            if t != limit_truth:
                violations.append(
                    f"{text}: limit says {limit_truth}, world {wid} says {t}"
                )
        results.append((text, limit_truth, per_world))
    return TranslationReport(
        passed=not violations, results=results, violations=violations, skipped=skipped
    )


# --- frame classification ---

class FrameReport(NamedTuple):
    reflexive: bool
    transitive: bool
    directed: bool
    linear: bool
    classification: str


def frame_properties(sys):
    """Decide the frame class of the accessibility relation and name the
    strongest matching modal logic, from the access masks and their
    converses in O(access pairs) mask operations."""
    access, reach = sys.access, sys._reach
    back = [0] * len(access)  # back[j]: the worlds that reach j
    seen = [0] * len(access)  # seen[j]: the worlds reached along with j from one world
    for i, s in enumerate(access):
        for j in s:
            back[j] |= 1 << i
            seen[j] |= reach[i]
    reflexive = all(r >> i & 1 for i, r in enumerate(reach))
    transitive = all(not reach[j] & ~reach[i] for i, s in enumerate(access) for j in s)
    directed = linear = True
    for v, s in enumerate(access):
        others = seen[v] & ~(1 << v)
        meets = 0  # the worlds that reach a world v reaches
        for k in s:
            meets |= back[k]
        directed = directed and not others & ~meets
        linear = linear and not others & ~(reach[v] | back[v])  # comparable with v
    if reflexive and transitive and linear:
        classification = "linear/S4.3"
    elif reflexive and transitive and directed:
        classification = "directed/S4.2"
    elif reflexive and transitive:
        classification = "preorder/S4"
    else:
        classification = "not-a-preorder"
    return FrameReport(reflexive, transitive, directed, linear, classification)


# --- schemas ---

class ModalSchema(NamedTuple):
    """A modal schema: its name, and build, the function that makes its
    instance from phi, or from phi and psi.  Its arity, the number of
    formulas it takes, is the number of build's parameters."""
    name: str
    build: object

    @property
    def arity(self):
        return self.build.__code__.co_argcount

    def instantiate(self, phi, psi=None):
        if self.arity == 2 and psi is None:
            raise EvalError(f"schema {self.name} needs two formulas")
        return self.build(*(phi, psi)[:self.arity])


SCHEMAS = {s.name: s for s in (
    ModalSchema("K", lambda phi, psi: Implies(
        Necessarily(Implies(phi, psi)), Implies(Necessarily(phi), Necessarily(psi)),
    )),
    ModalSchema("T", lambda phi: Implies(Necessarily(phi), phi)),
    ModalSchema("Four", lambda phi: Implies(Necessarily(phi), Necessarily(Necessarily(phi)))),
    ModalSchema("Dot2", lambda phi: Implies(Possibly(Necessarily(phi)), Necessarily(Possibly(phi)))),
    ModalSchema("Dot3", lambda phi, psi: Implies(
        And(Possibly(phi), Possibly(psi)),
        Or(Possibly(And(phi, Possibly(psi))), Possibly(And(psi, Possibly(phi)))),
    )),
)}


def schema_by_name(name):
    key = {k.lower(): k for k in SCHEMAS}.get(name.lower())
    if key is None:
        raise EvalError(f"unknown schema {name!r}; choose from {sorted(SCHEMAS)}")
    return SCHEMAS[key]


class SchemaCounterexample(NamedTuple):
    world_id: str
    phi: object
    psi: object


def _counterexamples(sys, schema, instances):
    """Yield a SchemaCounterexample for each (phi, psi) pair, in order, and
    each world, in index order, where the pair's schema instance fails.
    One-variable schemas ignore psi and report it as None.  The instance's
    label is composed from the labels of phi and psi alone, so the instance
    is built and labeled once per distinct pair of their labels."""
    failing = {}  # (label of phi, label of psi) -> mask of worlds where the instance fails
    for phi, psi in instances:
        if schema.arity == 1:
            psi = None
        labels = sys._label(phi), None if psi is None else sys._label(psi)
        fails = failing.get(labels)
        if fails is None:
            holds = sys._label(schema.instantiate(phi, psi))
            fails = failing[labels] = sys._everywhere & ~holds
        while fails:
            bit = fails & -fails
            yield SchemaCounterexample(sys.ids[bit.bit_length() - 1], phi, psi)
            fails ^= bit


@_too_deep("formula")
def check_schema(sys, schema, instances):
    """Decide each instantiated schema at every world, from the labels of
    its formulas; return all failures.  Instances are (phi, psi) pairs of
    closed formulas; psi is ignored by one-variable schemas."""
    instances = list(instances)  # checked, then evaluated: read it once
    for phi, psi in instances:
        if psi is None and schema.arity == 2:
            schema.instantiate(phi, psi)  # raises: the schema needs two formulas
        for g in (phi, psi):
            if g is not None and _free_vars(g):
                raise EvalError(f"schema instances must be closed: {print_formula(g)}")
    return list(_counterexamples(sys, schema, instances))


# --- counterexample search ---

@cache
def _generated_formulas():
    """Deterministic closed-formula pool over the constants, built once."""
    atoms = [
        Defined(Const0()),
        Defined(Const1()),
        Lt(Const0(), Const1()),
        Eq(Const0(), Const0()),
        Eq(Const1(), Const1()),
    ]
    level2 = atoms + [Not(a) for a in atoms]
    out = list(level2)
    for a, b in itertools.permutations(level2, 2):
        out.append(And(a, b))
    for a, b in itertools.combinations(level2, 2):
        out.append(Or(a, b))
    return tuple(out)


def _diagonal_pairs(pool):
    """Pairs of distinct pool formulas in diagonal order: pairs with small
    combined index come first, so a witness built from two mid-pool
    formulas is reached early."""
    n = len(pool)
    for s in range(2 * n - 1):
        for a in range(max(0, s - n + 1), min(s + 1, n)):
            if a != s - a:
                yield pool[a], pool[s - a]


def search_dot3_counterexample(sys, generator_budget=5000):
    """Return the first (world, phi, psi) falsifying the Dot3 schema, with
    phi and psi distinct formulas from a fixed pool (atoms over 0 and 1,
    their negations, and conjunctions and disjunctions of two of those), or
    None when the pool or the budget of pairs is exhausted.  Pairs are
    tried in diagonal order, and the world is the first, in index order,
    where the pair's instance fails.  Each pool formula is labeled once, at
    every world, and each pair is decided from the two labels."""
    if generator_budget < 0:
        raise ValueError("generator budget must be at least 0")
    pairs = itertools.islice(_diagonal_pairs(_generated_formulas()), generator_budget)
    return next(_counterexamples(sys, SCHEMAS["Dot3"], pairs), None)

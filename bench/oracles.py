"""Independent oracles for the benchmark's verdicts.

Nothing here imports finarith.  Formulas are nested tuples:

    terms     ("var", name) | ("0",) | ("1",) | ("N",) | ("S", t)
              | ("+", t, t) | ("*", t, t)
    formulas  ("=", t, t) | ("<", t, t) | ("Def", t) | ("Plus", t, t, t)
              | ("Times", t, t, t) | ("!", f) | ("&", f, f) | ("|", f, f)
              | ("->", f, f) | ("A", var, bound-or-None, f)
              | ("E", var, bound-or-None, f) | ("dia", f) | ("box", f)

A world is its domain (a set of naturals) and its largest element (None
for a world that is not presented as a truncation).  A frame is a list of
worlds, their ids, and for each world the list of worlds it can see.
"""
from __future__ import annotations

import re
from typing import NamedTuple


class World(NamedTuple):
    dom: frozenset
    top: int | None


class Frame(NamedTuple):
    worlds: list
    ids: list
    access: list  # access[i]: indices of the worlds visible from world i


def truncation(n):
    return World(frozenset(range(n + 1)), n)


def subset_world(elements):
    return World(frozenset(elements), None)


# --- definitional semantics (negative free logic, Kripke modalities) ---

def term(t, w, env):
    kind = t[0]
    if kind == "var":
        return env[t[1]]
    if kind in ("0", "1"):
        v = int(kind)
        return v if v in w.dom else None
    if kind == "N":
        return w.top
    args = [term(a, w, env) for a in t[1:]]
    if None in args:
        return None
    if kind == "S":
        v = args[0] + 1 if 1 in w.dom else None
    else:
        v = args[0] + args[1] if kind == "+" else args[0] * args[1]
    return v if v in w.dom else None


def quantifier_range(f, w, env):
    if f[2] is None:
        return sorted(w.dom)
    b = term(f[2], w, env)
    return [] if b is None else sorted(x for x in w.dom if x < b)


def holds(f, frame, i, env):
    """Truth of formula f at world i of the frame under env."""
    w = frame.worlds[i]
    kind = f[0]
    if kind in ("=", "<", "Plus", "Times", "Def"):
        vals = [term(t, w, env) for t in f[1:]]
        if None in vals:
            return False
        if kind == "=":
            return vals[0] == vals[1]
        if kind == "<":
            return vals[0] < vals[1]
        if kind == "Plus":
            return vals[0] + vals[1] == vals[2]
        if kind == "Times":
            return vals[0] * vals[1] == vals[2]
        return True
    if kind == "!":
        return not holds(f[1], frame, i, env)
    if kind == "&":
        return holds(f[1], frame, i, env) and holds(f[2], frame, i, env)
    if kind == "|":
        return holds(f[1], frame, i, env) or holds(f[2], frame, i, env)
    if kind == "->":
        return not holds(f[1], frame, i, env) or holds(f[2], frame, i, env)
    if kind in ("A", "E"):
        test = all if kind == "A" else any
        return test(holds(f[3], frame, i, {**env, f[1]: x}) for x in quantifier_range(f, w, env))
    test = any if kind == "dia" else all
    return test(holds(f[1], frame, j, env) for j in frame.access[i])


def single(world):
    return Frame([world], ["w"], [[0]])


def fo_holds(f, world):
    """Truth of a closed first-order sentence in one world."""
    return holds(f, single(world), 0, {})


def quantifier_trace(f, world):
    """Witness/counterexample chain down the sentence's quantifier prefix:
    at each quantifier whose truth value a single element explains (an
    existential that holds, a universal that fails), the least such
    element."""
    frame = single(world)
    env = {}
    steps = []
    while f[0] in ("A", "E"):
        want = f[0] == "E"
        if holds(f, frame, 0, env) != want:
            break
        found = next(
            (x for x in quantifier_range(f, world, env)
             if holds(f[3], frame, 0, {**env, f[1]: x}) == want),
            None,
        )
        if found is None:
            break
        steps.append({
            "kind": "witness" if want else "counterexample",
            "value": found,
            "var": f[1],
        })
        env[f[1]] = found
        f = f[3]
    return steps


# --- frames by construction ---

def aristotelian_frame(h):
    """Truncations at 1..h ordered by end-extension: a linear frame."""
    worlds = [truncation(n) for n in range(1, h + 1)]
    return Frame(worlds, [str(n) for n in range(1, h + 1)], [list(range(i, h)) for i in range(h)])


def subsets_frame(h):
    """All subsets of {0..h} ordered by inclusion: directed (the full set
    sees every world), linear only for h < 0."""
    masks = range(1 << (h + 1))
    doms = [frozenset(x for x in range(h + 1) if m >> x & 1) for m in masks]
    ids = [",".join(str(x) for x in sorted(d)) or "empty" for d in doms]
    access = [[j for j in masks if m & j == m] for m in masks]
    return Frame([subset_world(d) for d in doms], ids, access)


def fork_frame():
    """A root seeing two incomparable leaves: neither directed nor linear."""
    worlds = [subset_world({0}), subset_world({0, 1}), subset_world({0, 2})]
    return Frame(worlds, ["root", "left", "right"], [[0, 1, 2], [1], [2]])


def frame_class(frame):
    """(directed, linear) of a reflexive-transitive frame, by definition."""
    sees = [set(a) for a in frame.access]
    directed = linear = True
    for a in sees:
        for v in a:
            for w in a:
                if not sees[v] & sees[w]:
                    directed = False
                if v not in sees[w] and w not in sees[v]:
                    linear = False
    return directed, linear


def schema_instance(name, phi, psi):
    """The named schema instantiated at phi (and psi)."""
    box, dia = (lambda f: ("box", f)), (lambda f: ("dia", f))
    if name == "K":
        return ("->", box(("->", phi, psi)), ("->", box(phi), box(psi)))
    if name == "T":
        return ("->", box(phi), phi)
    if name == "Four":
        return ("->", box(phi), box(box(phi)))
    if name == "Dot2":
        return ("->", dia(box(phi)), box(dia(phi)))
    if name == "Dot3":
        return ("->", ("&", dia(phi), dia(psi)),
                ("|", dia(("&", phi, dia(psi))), dia(("&", psi, dia(phi)))))
    raise ValueError(f"unknown schema {name!r}")


def schema_may_fail(name, frame):
    """Frame correspondence on preorders: K, T and Four are valid; Dot2
    fails only on non-directed frames; Dot3 only on non-linear ones."""
    directed, linear = frame_class(frame)
    return {"K": False, "T": False, "Four": False, "Dot2": not directed, "Dot3": not linear}[name]


def falsifies(name, phi_text, psi_text, frame, world_id):
    """Does the schema instance at (phi, psi) fail at the named world?"""
    phi = parse(phi_text)
    psi = phi if psi_text is None else parse(psi_text)
    return not holds(schema_instance(name, phi, psi), frame, frame.ids.index(world_id), {})


# --- closed forms for the translation workload ---

def succ_possible(world, h):
    """A a. dia E b. b = a + 1 at world n of the aristotelian system of
    height h: every a <= n has a + 1 in some world m >= n."""
    return world < h


def sum_product_possible(world, h):
    """A a. A b. dia E c. E d. (c = a + b & d = a * b) at world n: the
    largest sum and product of a, b <= n fit below h."""
    return max(2 * world, world * world) <= h


# --- text form, for the sentences handed to the library ---

def show_term(t):
    kind = t[0]
    if kind == "var":
        return t[1]
    if kind in ("0", "1", "N"):
        return kind
    if kind == "S":
        return f"S({show_term(t[1])})"
    return f"({show_term(t[1])} {kind} {show_term(t[2])})"


def show(f):
    """Fully parenthesized text in the library's grammar."""
    kind = f[0]
    if kind in ("=", "<"):
        return f"{show_term(f[1])} {kind} {show_term(f[2])}"
    if kind in ("Def", "Plus", "Times"):
        return f"{kind}({', '.join(show_term(t) for t in f[1:])})"
    if kind in ("!", "dia", "box"):
        sep = "" if kind == "!" else " "
        return f"{kind}{sep}({show(f[1])})"
    if kind in ("&", "|", "->"):
        return f"({show(f[1])} {kind} {show(f[2])})"
    bound = "" if f[2] is None else f" < {show_term(f[2])}"
    return f"({kind} {f[1]}{bound}. {show(f[3])})"


# --- parser for the same grammar ---

_TOKEN = re.compile(r"\s*(->|[()+*=<!&|.,]|[A-Za-z][A-Za-z0-9_]*|[01])")


class _Parser:
    def __init__(self, text):
        self.toks = []
        pos = 0
        while text[pos:].strip():
            m = _TOKEN.match(text, pos)
            if m is None:
                raise ValueError(f"bad character at {pos} in {text!r}")
            self.toks.append(m.group(1))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, want=None):
        tok = self.peek()
        if tok is None or (want is not None and tok != want):
            raise ValueError(f"expected {want!r}, found {tok!r}")
        self.i += 1
        return tok

    def formula(self):
        left = self.disjunction()
        if self.peek() == "->":
            self.take()
            return ("->", left, self.formula())
        return left

    def disjunction(self):
        left = self.conjunction()
        while self.peek() == "|":
            self.take()
            left = ("|", left, self.conjunction())
        return left

    def conjunction(self):
        left = self.unary()
        while self.peek() == "&":
            self.take()
            left = ("&", left, self.unary())
        return left

    def unary(self):
        tok = self.peek()
        if tok in ("!", "dia", "box"):
            self.take()
            return (tok, self.unary())
        if tok in ("A", "E"):
            self.take()
            var = self.take()
            bound = None
            if self.peek() == "<":
                self.take()
                bound = self.sum()
            self.take(".")
            return (tok, var, bound, self.formula())
        if tok in ("Def", "Plus", "Times"):
            self.take()
            self.take("(")
            args = [self.sum()]
            while self.peek() == ",":
                self.take()
                args.append(self.sum())
            self.take(")")
            return (tok, *args)
        if tok == "(":
            save = self.i
            try:
                return self.atom()
            except ValueError:
                self.i = save
            self.take("(")
            f = self.formula()
            self.take(")")
            return f
        return self.atom()

    def atom(self):
        left = self.sum()
        op = self.take()
        if op not in ("=", "<"):
            raise ValueError(f"expected '=' or '<', found {op!r}")
        return (op, left, self.sum())

    def sum(self):
        left = self.product()
        while self.peek() == "+":
            self.take()
            left = ("+", left, self.product())
        return left

    def product(self):
        left = self.factor()
        while self.peek() == "*":
            self.take()
            left = ("*", left, self.factor())
        return left

    def factor(self):
        tok = self.take()
        if tok in ("0", "1", "N"):
            return (tok,)
        if tok == "S":
            self.take("(")
            t = self.sum()
            self.take(")")
            return ("S", t)
        if tok == "(":
            t = self.sum()
            self.take(")")
            return t
        if re.fullmatch(r"[a-z][a-z0-9_]*", tok) and tok not in ("dia", "box"):
            return ("var", tok)
        raise ValueError(f"expected a term, found {tok!r}")


def parse(text):
    p = _Parser(text)
    f = p.formula()
    if p.peek() is not None:
        raise ValueError(f"trailing input {p.peek()!r} in {text!r}")
    return f

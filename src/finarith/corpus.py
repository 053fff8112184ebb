"""Formula corpora: packaged defaults and plain-text loaders.

Corpus files hold one formula per line; blank lines and ``#`` comments are
ignored.  Schema-instance files hold two formulas per line separated by a
semicolon.
"""
from __future__ import annotations

from importlib.resources import files

from .errors import ParseError
from .logic import parse_formula


def _parse_lines(text, parse_line):
    """parse_line applied to each line that is not blank once its ``#``
    comment is cut; a ParseError names the line it comes from."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            out.append(parse_line(line))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    return out


def _parse_pair(line):
    parts = line.split(";")
    if len(parts) != 2:
        raise ParseError("expected 'formula ; formula'")
    return parse_formula(parts[0]), parse_formula(parts[1])


def parse_corpus_text(text):
    return _parse_lines(text, parse_formula)


def parse_pairs_text(text):
    return _parse_lines(text, _parse_pair)


def _packaged(name):
    return (files("finarith") / "corpora" / name).read_text(encoding="utf-8")


def load_packaged_formulas(name):
    """A named corpus shipped with the package (e.g. "induction20.fml")."""
    return parse_corpus_text(_packaged(name))


def load_packaged_pairs(name):
    return parse_pairs_text(_packaged(name))


def load_formulas(path):
    """Formulas from a plain-text corpus file on disk."""
    with open(path, encoding="utf-8") as fh:
        return parse_corpus_text(fh.read())


def load_pairs(path):
    with open(path, encoding="utf-8") as fh:
        return parse_pairs_text(fh.read())

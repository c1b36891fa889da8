"""Implicational formulas over word atoms.

A token sequence ``w1 ... wn`` is encoded as the left-nested implication
chain ``((((w1->w2)->w3)->...)->wn)``, so an atom stands for a word and is
nothing but its spelling: ``Atom("cat")`` is the same object wherever and
however often it is built or parsed.  This module owns the hash-consed
formula tree, that chain encoding (:func:`list_to_impl`), and the textual
``->`` notation.  Retrieval works on the equivalent word sequences and
builds no formulas.
"""

from __future__ import annotations

import re
import weakref
from _weakref import _remove_dead_weakref
from typing import Sequence, Union


class FormulaError(Exception):
    """Base class for formula-layer errors."""


class EmptyTokenList(FormulaError):
    """A chain encoding was requested for zero tokens."""


class FormulaSyntaxError(FormulaError):
    """Malformed formula text; ``offset`` is the byte position of the error."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


# Hash-consing (Filliatre & Conchon 2006): every Atom/Imp value exists once,
# so structural equality is identity and both ``==`` and ``hash`` are the
# default C-level object ones -- O(1), never recursive, and never a Python
# call on the prover's hot path.  _NODES maps a node's key -- an atom's
# spelling (a str), an implication's (antecedent, consequent) pair -- to a
# weak reference that remembers that key; when the node dies, _forget drops
# the entry, so the table holds only live formulas.  Keys hold the children,
# which a live parent keeps alive anyway.
_NODES: dict = {}


class _Entry(weakref.ref):
    """A weak reference to a node that knows the node's key in _NODES."""

    __slots__ = ("key",)


def _forget(entry: _Entry) -> None:
    """Drop a dead node's entry, unless an equal live node has replaced it.

    A garbage collection clears weak references before it runs their
    callbacks, so an equal node may be built and entered in between; the
    removal is therefore conditional, and atomic in C.
    """
    _remove_dead_weakref(_NODES, entry.key)


def _enter(key: Union[str, tuple], node):
    """The node for ``key``: ``node`` itself, or an equal one entered first.

    Lock-free: ``setdefault`` enters ``node`` atomically unless an entry is
    there, and a dead entry is removed (atomically, only if still dead)
    before trying again, so two threads never enter twin nodes.
    """
    mine = _Entry(node, _forget)
    mine.key = key
    while True:
        found = _NODES.setdefault(key, mine)()
        if found is not None:
            return found
        _remove_dead_weakref(_NODES, key)


class _Node:
    """Immutability for the shared nodes, as frozen dataclasses had it.

    The error class is imported where it is raised: ``dataclasses`` costs
    a cold start more than the whole prover.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Atom(_Node):
    """A propositional atom: a word, identified by its spelling alone.

    Atoms are hash-consed, keyed by ``surface``: one word is one object
    everywhere, so formulas parsed or built apart compare equal.
    """

    __slots__ = ("surface", "__weakref__")

    def __new__(cls, surface: str) -> "Atom":
        entry = _NODES.get(surface)
        atom = entry and entry()
        if atom is None:
            atom = object.__new__(cls)
            _SET_SURFACE(atom, surface)
            atom = _enter(surface, atom)
        return atom

    def __reduce__(self):
        return Atom, (self.surface,)

    def __repr__(self) -> str:
        return f"Atom({self.surface!r})"


class Imp(_Node):
    """The implication ``antecedent -> consequent``.

    Hash-consed like :class:`Atom`: structurally equal implications are the
    same object, so ``==`` and ``hash`` take constant time at any depth.
    """

    __slots__ = ("antecedent", "consequent", "__weakref__")

    def __new__(cls, antecedent: "Formula", consequent: "Formula") -> "Imp":
        key = (antecedent, consequent)
        entry = _NODES.get(key)
        imp = entry and entry()
        if imp is None:
            imp = object.__new__(cls)
            _SET_ANTECEDENT(imp, antecedent)
            _SET_CONSEQUENT(imp, consequent)
            imp = _enter(key, imp)
        return imp

    def __reduce__(self):
        return Imp, (self.antecedent, self.consequent)

    def __repr__(self) -> str:
        return f"<Imp {print_formula(self)}>"


# The slots' own setters, which _Node.__setattr__ does not block.
_SET_SURFACE = Atom.surface.__set__
_SET_ANTECEDENT, _SET_CONSEQUENT = Imp.antecedent.__set__, Imp.consequent.__set__

Formula = Union[Atom, Imp]


# The benchmark's fixtures still build atoms as ``Interner().atom(word)``;
# ROADMAP item 1 moves them to ``Atom(word)`` and deletes this alias.
class Interner:
    atom = staticmethod(Atom)


def list_to_impl(tokens: Sequence[Atom]) -> Formula:
    """Fold a non-empty token sequence into its left-nested chain."""
    if not tokens:
        raise EmptyTokenList("cannot encode an empty token sequence")
    acc: Formula = tokens[0]
    for tok in tokens[1:]:
        acc = Imp(acc, tok)
    return acc


# One pass over the text: a word, an arrow, or any other single character
# (a parenthesis, or a stray character the parser rejects), after spaces.
_LEXEME_RE = re.compile(r"[ \t\r\n]*([a-z0-9_']+|->|[^ \t\r\n])")
_WORD_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789_'")


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _syntax_error(text: str, index: int, message: str) -> FormulaSyntaxError:
    """The error for the ``index``-th lexeme (or the end), at its byte offset.

    A stray character anywhere is reported first, as if lexing preceded parsing.
    """
    starts = []
    for m in _LEXEME_RE.finditer(text):
        lexeme = m.group(1)
        if lexeme[-1] not in _WORD_CHARS and lexeme not in ("->", "(", ")"):
            return FormulaSyntaxError(f"unexpected character {lexeme!r}", _byte_offset(text, m.start(1)))
        starts.append(m.start(1))
    off = starts[index] if index < len(starts) else len(text)
    return FormulaSyntaxError(message, _byte_offset(text, off))


def _fold(operands: list[Formula]) -> Formula:
    """``a1->a2->...->an``, right-associated."""
    acc = operands[-1]
    for f in reversed(operands[:-1]):
        acc = Imp(f, acc)
    return acc


def _group(text: str, lexemes: list[str], index: int, nested: bool) -> tuple[Formula, int]:
    """Parse operands joined by ``->`` from ``lexemes[index]``: (formula, next index).

    ``nested`` means a ``(`` opened this group, so it must close with ``)``.
    Each parenthesis level is one recursive call.  A word already in the
    node table costs one dict lookup, not an ``Atom`` call.
    """
    nodes = _NODES
    operands: list[Formula] = []
    n = len(lexemes)
    while True:
        lexeme = lexemes[index] if index < n else ""
        if lexeme == "(":
            group, index = _group(text, lexemes, index + 1, True)
            operands.append(group)
        elif lexeme and lexeme[-1] in _WORD_CHARS:
            entry = nodes.get(lexeme)
            operands.append(entry and entry() or Atom(lexeme))
            index += 1
        else:
            raise _syntax_error(text, index, "expected atom or '('")
        if index < n and lexemes[index] == "->":
            index += 1
        else:
            break
    if not nested:
        if index < n:
            raise _syntax_error(text, index, "unexpected trailing input")
    elif index < n and lexemes[index] == ")":
        index += 1
    else:
        raise _syntax_error(text, index, "expected ')'")
    return _fold(operands), index


def parse_formula(text: str) -> Formula:
    """Parse ``->`` notation (right-associative; parentheses group).

    A word parses to its :class:`Atom`, so separate parses of the same
    words share their atoms and compare equal.  An arrow chain is a loop,
    but each parenthesis level is one Python frame, so nesting near the
    recursion limit (a left-nested chain of about 1,000 atoms) raises
    ``RecursionError`` here, as it would in the prover.
    """
    return _group(text, _LEXEME_RE.findall(text), 0, False)[0]


def print_formula(f: Formula) -> str:
    """Render with minimal parentheses: only implication antecedents get them."""
    out: list[str] = []
    todo: list = [f]  # formulas and literal strings, rendered last-first
    while todo:
        item = todo.pop()
        if isinstance(item, Imp):
            todo.append(item.consequent)
            todo.append("->")
            if isinstance(item.antecedent, Imp):
                todo += (")", item.antecedent, "(")
            else:
                todo.append(item.antecedent)
        else:
            out.append(item if isinstance(item, str) else item.surface)
    return "".join(out)

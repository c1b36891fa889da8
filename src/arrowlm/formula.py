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
# which a live parent keeps alive anyway.  A lookup is C alone
# (``_NODES.get(key, _NONE)()``); a new node costs one Python frame, _build,
# and a dead one one callback, _forget.
_NODES: dict = {}
_NONE = type(None)  # called, it returns None: a table miss, without a Python frame


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


def _build(cls: type, key: Union[str, tuple]):
    """The node of class ``cls`` for ``key``: a new one, or an equal one entered first.

    Lock-free: ``setdefault`` enters the new node atomically unless an entry
    is there, and a dead entry is removed (atomically, only if still dead)
    before trying again, so two threads never enter twin nodes.
    """
    node = object.__new__(cls)
    if cls is Imp:
        _SET_ANTECEDENT(node, key[0])
        _SET_CONSEQUENT(node, key[1])
    else:
        _SET_SURFACE(node, key)
    mine = _Entry(node, _forget)
    mine.key = key
    while (found := _NODES.setdefault(key, mine)()) is None:
        _remove_dead_weakref(_NODES, key)
    return found


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
        return _NODES.get(surface, _NONE)() or _build(Atom, surface)

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
        return _NODES.get(key, _NONE)() or _build(Imp, key)

    def __reduce__(self):
        return Imp, (self.antecedent, self.consequent)

    def __repr__(self) -> str:
        return f"<Imp {print_formula(self)}>"


# The slots' own setters, which _Node.__setattr__ does not block.
_SET_SURFACE = Atom.surface.__set__
_SET_ANTECEDENT, _SET_CONSEQUENT = Imp.antecedent.__set__, Imp.consequent.__set__

Formula = Union[Atom, Imp]


# The benchmark's fixtures still build atoms as ``Interner().atom(word)``;
# ROADMAP item 1a moves them to ``Atom(word)`` and deletes this alias.
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


def _group(text: str, lexemes: list[str], index: int, nested: bool) -> tuple[Formula, int]:
    """Parse operands joined by ``->`` from ``lexemes[index]``: (formula, index past its end).

    ``nested`` means a ``(`` opened this group, so it must close with ``)``.
    Each parenthesis level is one recursive call; words and arrows are a
    loop, and the operands fold right-associated in place.
    """
    nodes = _NODES
    operands: list[Formula] = []
    while True:
        lexeme = lexemes[index]
        if lexeme == "(":
            group, index = _group(text, lexemes, index + 1, True)
            operands.append(group)
        elif lexeme and lexeme[-1] in _WORD_CHARS:
            operands.append(nodes.get(lexeme, _NONE)() or _build(Atom, lexeme))
            index += 1
        else:
            raise _syntax_error(text, index, "expected atom or '('")
        if lexemes[index] != "->":
            break
        index += 1
    if nested and lexemes[index] != ")":
        raise _syntax_error(text, index, "expected ')'")
    if not nested and lexemes[index]:
        raise _syntax_error(text, index, "unexpected trailing input")
    acc = operands.pop()
    while operands:
        key = (operands.pop(), acc)
        acc = nodes.get(key, _NONE)() or _build(Imp, key)
    return acc, index + 1


def parse_formula(text: str) -> Formula:
    """Parse ``->`` notation (right-associative; parentheses group).

    A word parses to its :class:`Atom`, so separate parses of the same
    words share their atoms and compare equal.  A new node costs one Python
    frame and, once dropped, one callback.  An arrow chain is a loop, so a
    right-nested chain parses at any length, but each parenthesis level is
    one frame: a left-nested chain of about 1,000 atoms raises
    ``RecursionError`` here.  The benchmark counts that as the parser's
    failure, so an explicit stack waits on ROADMAP item 1a.
    """
    return _group(text, _LEXEME_RE.findall(text) + [""], 0, False)[0]


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

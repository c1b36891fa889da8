"""Decision procedure for implicational intuitionistic logic.

``prove`` implements the contraction-free four-rule sequent calculus for
the implicational fragment (Dyckhoff 1992, *JSL* 57(3)): an atom (or any
goal) already in the context is proven; an implication goal moves its
antecedent into the context; and a context implication ``A->B`` is
eliminated, with atomic ``A`` discharged by context lookup and compound
``A = C->D`` discharged by proving ``C->D`` under the extra assumption
``D->B`` in place of ``A->B``.  Every premise is smaller than its
conclusion in Dyckhoff's multiset order, so the search terminates on all
inputs.

Contexts are sets.  Contraction is admissible, so a repeated hypothesis
adds nothing and is kept once; whether a goal follows then depends only on
the goal and the set of hypotheses.  An implication goal is a loop that
assumes its antecedents and goes on to its head, growing the context once,
and one memo per top-level call maps each (atom goal, context) pair it has
settled to its outcome.  Elimination tries the context's implications in
the order they were assumed: when the left premise of one fails, the next
is tried; once a left premise succeeds, the search commits to the right
premise and tries nothing else.  Committing is safe because the right
premise (the context with ``B`` for ``A->B``) is invertible: ``B`` implies
``A->B``, so if the goal follows at all, it follows from the right premise.

The same fact lets the search skip every ``A->B`` whose ``B`` is already in
the context.  Eliminating it could only lead to the context less ``A->B``;
if the atom goal (not in the context) follows from that, it follows by
eliminating some other hypothesis, whose premises still hold with ``A->B``
added back, because weakening is admissible.  So skipping loses no proof,
and never searches the left premise ``A``.  The check reads the current
context: once ``B`` itself is eliminated, ``A->B`` is tried again.

At an atom goal the search first applies the head rule: the goal fails at
once if it is the *head* (the last consequent; an atom is its own head) of
no hypothesis.  The rule is sound because only an axiom closes an atom
goal, and no rule adds a head to the context of its right premise: ``B``
has the head of ``A->B``, and the auxiliary ``D->B`` that of ``(C->D)->B``.

One search serves deciding and witnessing.  The memo holds atom goals
only, each with False or the hypothesis it eliminated, and those are the
only entries a witness reads.  ``prove_with_term`` decides once, then
``_witness`` follows those records and searches nothing.  That is sound:
an entry is written only after its premises were settled and memoized (an
axiom needs no entry), and one recorded choice per goal suffices because
the right premise is invertible.
"""

from __future__ import annotations

import itertools
from typing import Optional, Union

from .formula import Atom, Formula, Imp, _Node


class _Term(_Node):
    """An immutable lambda term, equal to and hashed as its class and fields.

    Plain slotted classes rather than frozen dataclasses, which would load
    ``dataclasses`` and ``inspect`` on every ``arrowlm prove``.  A subclass
    names its fields in ``__slots__``, in constructor order.
    """

    __slots__ = ()

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__reduce__()[1] == other.__reduce__()[1]

    def __hash__(self) -> int:
        return hash(self.__reduce__())

    def __repr__(self) -> str:
        cls, values = self.__reduce__()
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self.__slots__, values))
        return f"{cls.__name__}({fields})"


class Var(_Term):
    __slots__ = ("name",)

    def __new__(cls, name: str) -> "Var":
        term = object.__new__(cls)
        _SET_NAME(term, name)
        return term


class Lam(_Term):
    __slots__ = ("bound", "body")

    def __new__(cls, bound: str, body: "ProofTerm") -> "Lam":
        term = object.__new__(cls)
        _SET_BOUND(term, bound)
        _SET_BODY(term, body)
        return term


class App(_Term):
    __slots__ = ("fun", "arg")

    def __new__(cls, fun: "ProofTerm", arg: "ProofTerm") -> "App":
        term = object.__new__(cls)
        _SET_FUN(term, fun)
        _SET_ARG(term, arg)
        return term


# The slots' own setters, which _Node.__setattr__ does not block.
_SET_NAME = Var.name.__set__
_SET_BOUND, _SET_BODY = Lam.bound.__set__, Lam.body.__set__
_SET_FUN, _SET_ARG = App.fun.__set__, App.arg.__set__

ProofTerm = Union[Var, Lam, App]


def prove(goal: Formula, context: tuple[Formula, ...] = ()) -> bool:
    """Decide provability of ``goal`` from ``context``, read as a set of hypotheses."""
    hyps = tuple(dict.fromkeys(context))
    return _search(goal, hyps, frozenset(hyps), {}) is not False


def prove_with_term(goal: Formula) -> Optional[ProofTerm]:
    """Like :func:`prove` but return a lambda witness, or None if unprovable.

    The goal is decided once and :func:`_witness` reads the proof from that
    decision's memo.  Every witness is beta-normal and simply typed at the
    goal formula.
    """
    memo: dict = {}
    if _search(goal, (), frozenset(), memo) is False:
        return None
    return _witness(goal, frozenset(), {}, memo, itertools.count(1))


def _search(goal: Formula, hyps: tuple, known: frozenset, memo: dict) -> Union[bool, Imp]:
    """The four-rule search over a set context: False, or how ``goal`` follows.

    ``hyps`` holds the hypotheses without repeats in the order they were
    assumed, which fixes the search order; ``known`` is the same set as a
    frozenset, which answers membership and keys ``memo``.  An implication
    goal extends both once; an atom goal's outcome depends on the set alone,
    so ``memo`` records it either way: False, or the hypothesis it eliminated.
    """
    if goal in known:
        return True
    if isinstance(goal, Imp):
        assumed: dict = {}  # the new antecedents, in order
        while isinstance(goal, Imp):
            if goal.antecedent not in known:
                assumed[goal.antecedent] = None
            goal = goal.consequent
            if goal in known or goal in assumed:
                return True
        if assumed:
            hyps, known = hyps + tuple(assumed), known.union(assumed)
    key = (goal, known)
    if key in memo:
        return memo[key]
    # The head rule, inline: the prove-mix call budget counts every Python call.
    for f in hyps:
        while isinstance(f, Imp):
            f = f.consequent
        if f is goal:
            break
    else:
        memo[key] = False
        return False
    result = False
    for i, f in enumerate(hyps):
        if (not isinstance(f, Imp) or f.consequent in known
                or isinstance(f.antecedent, Atom) and f.antecedent not in known):
            continue
        a, b = f.antecedent, f.consequent
        rest, rest_known = hyps[:i] + hyps[i + 1 :], known - {f}
        if not isinstance(a, Atom):
            aux = Imp(a.consequent, b)
            if aux in rest_known:
                holds = _search(a, rest, rest_known, memo)
            else:
                holds = _search(a, rest + (aux,), rest_known | {aux}, memo)
            if holds is False:
                continue
        # Commit: the right premise is invertible, so no other choice is tried.
        if b not in rest_known:
            rest, rest_known = rest + (b,), rest_known | {b}
        if _search(goal, rest, rest_known, memo) is not False:
            result = f
        break
    memo[key] = result
    return result


def _witness(goal: Formula, known: frozenset, wits: dict, memo: dict, names) -> ProofTerm:
    """The witness of a provable ``goal``, built along the proof ``memo`` records.

    ``wits`` maps each hypothesis in ``known`` to its witness (an entry
    outside ``known`` is never read).  Binder names come from ``names``, one
    counter per top-level call, so every binder is fresh and nothing is
    captured.  An auxiliary hypothesis ``D->B`` stays the triple
    ``(s, d, c)`` for ``\\d. s (\\c. d)``: :func:`_apply` contracts it when
    it is applied, and it is written out only where it closes a goal.

    A loop takes an implication goal's binders and an atom goal's
    eliminations; only a compound left premise recurses.
    """
    binders = []
    while goal not in known:
        if isinstance(goal, Imp):
            a, x = goal.antecedent, f"x{next(names)}"
            binders.append(x)
            if a not in known:
                known, wits = known | {a}, {**wits, a: Var(x)}
            goal = goal.consequent
            continue
        f = memo[goal, known]
        a, b, s = f.antecedent, f.consequent, wits[f]
        known = known - {f}
        if isinstance(a, Atom):
            arg = wits[a]
        else:
            aux = Imp(a.consequent, b)
            if aux in known:
                arg = _witness(a, known, wits, memo, names)
            else:
                aux_wit = (s, f"x{next(names)}", f"x{next(names)}")
                arg = _witness(a, known | {aux}, {**wits, aux: aux_wit}, memo, names)
        if b not in known:
            known, wits = known | {b}, {**wits, b: _apply(s, arg)}
    term = wits[goal]
    if isinstance(term, tuple):
        s, d, c = term
        term = Lam(d, _apply(s, Lam(c, Var(d))))
    for x in reversed(binders):
        term = Lam(x, term)
    return term


def _apply(fun, arg: ProofTerm) -> ProofTerm:
    """``fun arg``, contracting the redex an auxiliary ``fun`` would form."""
    while isinstance(fun, tuple):
        fun, _, c = fun  # (\d. s (\c. d)) arg  ~>  s (\c. arg)
        arg = Lam(c, arg)
    return App(fun, arg)


def type_check(
    term: ProofTerm, formula: Formula, env: Optional[dict[str, Formula]] = None
) -> bool:
    """Bidirectional simply-typed check of ``term`` against ``formula``, in one loop.

    A lambda spine checks against an implication, binding into one copy of
    the environment per checked subterm; the application spine beneath it
    must synthesize from its head variable, each argument going onto a stack
    with the antecedent it must check against, and the head's remaining type
    must be the target.  Returns False on anything ill-typed (including
    unannotated beta-redexes, whose head cannot synthesize).  No depth of
    term overflows the Python stack.
    """
    todo = [(term, formula, env or {})]  # no env is mutated once pushed
    while todo:
        term, ty, env = todo.pop()
        if isinstance(term, Lam):
            env = dict(env)
            while isinstance(term, Lam):
                if not isinstance(ty, Imp):
                    return False
                env[term.bound] = ty.antecedent
                term, ty = term.body, ty.consequent
        args = []
        while isinstance(term, App):
            args.append(term.arg)
            term = term.fun
        head = env.get(term.name) if isinstance(term, Var) else None
        for arg in reversed(args):
            if not isinstance(head, Imp):
                return False
            todo.append((arg, head.antecedent, env))
            head = head.consequent
        if head is not ty:  # formulas are hash-consed
            return False
    return True


def format_term(term: ProofTerm) -> str:
    """Render a beta-normal term with minimal parentheses, e.g. ``\\x1.\\x2.x2 (x1 x2)``.

    The domain is beta-normal terms: what :func:`prove_with_term` returns and
    what :func:`type_check` accepts.  So no lambda is ever in function
    position, and only a compound argument is parenthesized.  The output is
    printed from one stack of pending terms and strings, so no depth of term
    overflows the Python stack.
    """
    out: list[str] = []
    todo: list = [term]  # terms and literal strings, rendered last-first
    while todo:
        item = todo.pop()
        if isinstance(item, Lam):
            out.append(f"\\{item.bound}.")
            todo.append(item.body)
        elif isinstance(item, App):
            todo += (item.arg, " ") if isinstance(item.arg, Var) else (")", item.arg, " (")
            todo.append(item.fun)
        else:
            out.append(item if isinstance(item, str) else item.name)
    return "".join(out)

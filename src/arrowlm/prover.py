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
the goal and the set of hypotheses, and one memo per top-level call maps
each (goal, context) pair it has settled to its outcome.  Elimination
tries the context's implications in the order they were assumed: when the
left premise of one fails, the next is tried; once a left premise
succeeds, the search commits to the right premise and tries nothing else.
Committing is safe because the right premise (the context with ``B`` for
``A->B``) is invertible: ``B`` implies ``A->B``, so if the goal follows at
all, it follows from the right premise.

At an atom goal the search first applies the head rule: the goal fails at
once if it is the *head* (the last consequent; an atom is its own head) of
no hypothesis.  The rule is sound because only an axiom closes an atom
goal, and no rule adds a head to the context of its right premise: ``B``
has the head of ``A->B``, and the auxiliary ``D->B`` that of ``(C->D)->B``.

The search only decides.  ``prove_with_term`` runs it once, then
``_witness`` replays the decision from the memo: an implication goal
becomes a lambda, an atom in the context is its hypothesis's witness, and
any other atom takes the first implication whose left premise the memo
says holds, then goes on with the right premise.
"""

from __future__ import annotations

import itertools
from typing import Optional, Union

from .formula import Atom, Formula, Imp, _Node


class StepLimitExceeded(Exception):
    """beta_normalize exceeded its reduction budget (ill-typed input guard)."""


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
    return _search(goal, hyps, frozenset(hyps), {})


def prove_with_term(goal: Formula) -> Optional[ProofTerm]:
    """Like :func:`prove` but return a lambda witness, or None if unprovable.

    The compound-antecedent elimination proves ``C->D`` under an auxiliary
    hypothesis ``D->B``; that hypothesis is realized concretely as
    ``\\d. s (\\c. d)`` from the selected ``s : (C->D)->B``, and applying it
    to an argument builds ``s (\\c. arg)`` directly, so every witness is
    beta-normal and simply typed at the goal formula.
    """
    memo: dict = {}
    found = _search(goal, (), frozenset(), memo)
    return _term(_witness(goal, (), frozenset(), (), memo, itertools.count(1))) if found else None


# A witness inside the walk is plain data: a variable name, ("lam", name,
# body), ("app", fun, arg) or ("aux", s, d, c) for the auxiliary hypothesis
# \d. s (\c. d).  Names come from one counter per top-level call, so every
# binder a step creates is fresh and no step can capture.
Witness = Union[str, tuple]


def _search(goal: Formula, hyps: tuple, known: frozenset, memo: dict) -> bool:
    """The four-rule search over a set context: whether ``goal`` follows.

    ``hyps`` holds the hypotheses without repeats in the order they were
    assumed, which fixes the search order; ``known`` is the same set as a
    frozenset, which answers membership and keys ``memo``.  The outcome
    depends on the set alone, so ``memo`` records both outcomes.
    """
    if goal in known:
        return True
    key = (goal, known)
    if key in memo:
        return memo[key]
    result = False
    if isinstance(goal, Imp):
        a = goal.antecedent
        if a not in known:
            hyps, known = hyps + (a,), known | {a}
        result = _search(goal.consequent, hyps, known, memo)
    else:
        # The head rule, inline: the prove-mix call budget counts every Python call.
        for f in hyps:
            while isinstance(f, Imp):
                f = f.consequent
            if f is goal:
                break
        else:
            memo[key] = False
            return False
        for i, f in enumerate(hyps):
            if not isinstance(f, Imp) or isinstance(f.antecedent, Atom) and f.antecedent not in known:
                continue
            a, b = f.antecedent, f.consequent
            rest, rest_known = hyps[:i] + hyps[i + 1 :], known - {f}
            if not isinstance(a, Atom):
                aux = Imp(a.consequent, b)
                if aux in rest_known:
                    holds = _search(a, rest, rest_known, memo)
                else:
                    holds = _search(a, rest + (aux,), rest_known | {aux}, memo)
                if not holds:
                    continue
            # Commit: the right premise is invertible, so no other choice is tried.
            if b not in rest_known:
                rest, rest_known = rest + (b,), rest_known | {b}
            result = _search(goal, rest, rest_known, memo)
            break
    memo[key] = result
    return result


def _witness(goal: Formula, hyps: tuple, known: frozenset, wits: tuple, memo: dict, names) -> Witness:
    """Replay the decision of a provable ``goal`` as a witness; ``wits`` pairs with ``hyps``.

    A left premise that the search did not settle in this context, because
    it reached the context in another order, is decided by ``_search``.
    """
    if goal in known:
        return wits[hyps.index(goal)]
    if isinstance(goal, Imp):
        a, x = goal.antecedent, f"x{next(names)}"
        if a not in known:
            hyps, known, wits = hyps + (a,), known | {a}, wits + (x,)
        return ("lam", x, _witness(goal.consequent, hyps, known, wits, memo, names))
    for i, f in enumerate(hyps):
        if not isinstance(f, Imp) or isinstance(f.antecedent, Atom) and f.antecedent not in known:
            continue
        a, b, s = f.antecedent, f.consequent, wits[i]
        rest, rest_known, rest_wits = hyps[:i] + hyps[i + 1 :], known - {f}, wits[:i] + wits[i + 1 :]
        if isinstance(a, Atom):
            arg = wits[hyps.index(a)]
        else:
            aux = Imp(a.consequent, b)
            new = aux not in rest_known
            left, left_known = (rest + (aux,), rest_known | {aux}) if new else (rest, rest_known)
            holds = memo.get((a, left_known))
            if not (_search(a, left, left_known, memo) if holds is None else holds):
                continue
            aux_wit = (("aux", s, f"x{next(names)}", f"x{next(names)}"),) if new else ()
            arg = _witness(a, left, left_known, rest_wits + aux_wit, memo, names)
        if b not in rest_known:
            rest, rest_known, rest_wits = rest + (b,), rest_known | {b}, rest_wits + (_apply(s, arg),)
        return _witness(goal, rest, rest_known, rest_wits, memo, names)


def _apply(fun: Witness, arg: Witness) -> Witness:
    """``fun arg``, contracting the redex an auxiliary ``fun`` would form."""
    while isinstance(fun, tuple) and fun[0] == "aux":
        _, fun, _, c = fun  # (\d. s (\c. d)) arg  ~>  s (\c. arg)
        arg = ("lam", c, arg)
    return ("app", fun, arg)


def _term(witness: Witness) -> ProofTerm:
    if isinstance(witness, str):
        return Var(witness)
    tag = witness[0]
    if tag == "lam":
        return Lam(witness[1], _term(witness[2]))
    if tag == "app":
        return App(_term(witness[1]), _term(witness[2]))
    _, s, d, c = witness
    return Lam(d, _term(_apply(s, ("lam", c, d))))


def type_check(
    term: ProofTerm, formula: Formula, env: Optional[dict[str, Formula]] = None
) -> bool:
    """Bidirectional simply-typed check of ``term`` against ``formula``.

    Variables and applications synthesize; abstractions check against
    implications.  Returns False on anything ill-typed (including
    unannotated beta-redexes, whose head cannot synthesize).
    """

    def synth(t: ProofTerm, env: dict[str, Formula]) -> Optional[Formula]:
        if isinstance(t, Var):
            return env.get(t.name)
        if isinstance(t, App):
            fun_ty = synth(t.fun, env)
            if not isinstance(fun_ty, Imp):
                return None
            if not check(t.arg, fun_ty.antecedent, env):
                return None
            return fun_ty.consequent
        return None

    def check(t: ProofTerm, ty: Formula, env: dict[str, Formula]) -> bool:
        if isinstance(t, Lam):
            if not isinstance(ty, Imp):
                return False
            return check(t.body, ty.consequent, {**env, t.bound: ty.antecedent})
        got = synth(t, env)
        return got is not None and got == ty

    return check(term, formula, dict(env or {}))


def free_vars(term: ProofTerm) -> frozenset[str]:
    if isinstance(term, Var):
        return frozenset((term.name,))
    if isinstance(term, Lam):
        return free_vars(term.body) - {term.bound}
    return free_vars(term.fun) | free_vars(term.arg)


def _all_names(term: ProofTerm) -> set[str]:
    if isinstance(term, Var):
        return {term.name}
    if isinstance(term, Lam):
        return {term.bound} | _all_names(term.body)
    return _all_names(term.fun) | _all_names(term.arg)


def beta_normalize(term: ProofTerm, max_steps: int = 1_000_000) -> ProofTerm:
    """Normal-order beta-normal form with capture-avoiding substitution.

    The step bound only guards ill-typed inputs (typed terms are strongly
    normalizing); exceeding it raises :class:`StepLimitExceeded`.
    """
    used = _all_names(term)
    counter = itertools.count(1)

    def fresh() -> str:
        while True:
            name = f"v{next(counter)}"
            if name not in used:
                used.add(name)
                return name

    def subst(t: ProofTerm, x: str, repl: ProofTerm, repl_free: frozenset[str]) -> ProofTerm:
        if isinstance(t, Var):
            return repl if t.name == x else t
        if isinstance(t, App):
            return App(subst(t.fun, x, repl, repl_free), subst(t.arg, x, repl, repl_free))
        if t.bound == x:
            return t
        if t.bound in repl_free and x in free_vars(t.body):
            renamed = fresh()
            body = subst(t.body, t.bound, Var(renamed), frozenset((renamed,)))
            return Lam(renamed, subst(body, x, repl, repl_free))
        return Lam(t.bound, subst(t.body, x, repl, repl_free))

    def reduce_once(t: ProofTerm) -> tuple[ProofTerm, bool]:
        if isinstance(t, App):
            if isinstance(t.fun, Lam):
                return subst(t.fun.body, t.fun.bound, t.arg, free_vars(t.arg)), True
            fun, changed = reduce_once(t.fun)
            if changed:
                return App(fun, t.arg), True
            arg, changed = reduce_once(t.arg)
            return App(t.fun, arg), changed
        if isinstance(t, Lam):
            body, changed = reduce_once(t.body)
            return Lam(t.bound, body), changed
        return t, False

    steps = 0
    current = term
    while True:
        nxt, changed = reduce_once(current)
        if not changed:
            return current
        steps += 1
        if steps > max_steps:
            raise StepLimitExceeded(f"no normal form within {max_steps} reductions")
        current = nxt


def format_term(term: ProofTerm) -> str:
    """Render a term with minimal parentheses, e.g. ``\\x1.\\x2.(x2 x1)``."""
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Lam):
        return f"\\{term.bound}.{format_term(term.body)}"
    fun = format_term(term.fun)
    if isinstance(term.fun, Lam):
        fun = f"({fun})"
    arg = format_term(term.arg)
    if not isinstance(term.arg, Var):
        arg = f"({arg})"
    return f"{fun} {arg}"

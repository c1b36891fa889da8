"""Decision procedure for implicational intuitionistic logic.

``prove`` implements the contraction-free four-rule sequent calculus for
the implicational fragment: an atom (or any goal) already in the context
is proven; an implication goal moves its antecedent into the context; and
a context implication ``A->B`` is eliminated by first-fit selection, with
atomic ``A`` discharged by context lookup and compound ``A = C->D``
discharged by re-proving ``C->D`` under the extra assumption ``D->B``.
The selection commits to the first qualifying assumption, so search never
backtracks and terminates on all inputs.

Deciding and witnessing are one search: its context pairs each hypothesis
with a witness, so a successful search returns the record of its
derivation.  ``prove`` keeps only whether it succeeded; ``prove_with_term``
turns the record into a lambda-calculus term, validated here by
``type_check`` and ``beta_normalize``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Union

from .formula import Atom, Formula, Imp


class StepLimitExceeded(Exception):
    """beta_normalize exceeded its reduction budget (ill-typed input guard)."""


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Lam:
    bound: str
    body: "ProofTerm"


@dataclass(frozen=True)
class App:
    fun: "ProofTerm"
    arg: "ProofTerm"


ProofTerm = Union[Var, Lam, App]


def prove(goal: Formula, context: tuple[Formula, ...] = ()) -> bool:
    """Decide provability of ``goal`` from ``context`` (order-significant)."""
    hyps = list(zip(context, map("h{}".format, range(len(context)))))
    return _search(goal, hyps, itertools.count(1)) is not None


def prove_with_term(goal: Formula) -> Optional[ProofTerm]:
    """Like :func:`prove` but return a lambda witness, or None if unprovable.

    The compound-antecedent elimination proves ``C->D`` under an auxiliary
    hypothesis ``D->B``; that hypothesis is realized concretely as
    ``\\d. s (\\c. d)`` from the selected ``s : (C->D)->B``, so every
    witness is simply typed at the goal formula.
    """
    witness = _search(goal, [], itertools.count(1))
    return None if witness is None else _term(witness)


# A witness inside the search is plain data: a variable name, ("lam", name,
# body) or ("app", fun, arg).  Names come from one counter per top-level
# call, so every binder in a witness is distinct and no step can capture.
Witness = Union[str, tuple]


def _search(goal: Formula, ctx: list[tuple[Formula, Witness]], names) -> Optional[Witness]:
    """The four-rule search; ``ctx`` pairs each hypothesis with its witness.

    Lookups test identity before ``==`` (as ``in`` does), so deciding makes
    no more Python calls than a formula-only context would.
    """
    for f, w in ctx:
        if f is goal or f == goal:
            return w
    if isinstance(goal, Imp):
        x = f"x{next(names)}"
        body = _search(goal.consequent, [(goal.antecedent, x)] + ctx, names)
        return None if body is None else ("lam", x, body)
    for i, (f, s) in enumerate(ctx):
        if not isinstance(f, Imp):
            continue
        rest = ctx[:i] + ctx[i + 1 :]
        a, b = f.antecedent, f.consequent
        arg = None
        if isinstance(a, Atom):
            for g, w in rest:
                if g is a or g == a:
                    arg = w
                    break
        else:
            d, c = f"x{next(names)}", f"x{next(names)}"
            aux = ("lam", d, ("app", s, ("lam", c, d)))
            arg = _search(a, [(Imp(a.consequent, b), aux)] + rest, names)
        if arg is not None:
            # Commit: replace the selected implication by its consequent.
            return _search(goal, [(b, ("app", s, arg))] + rest, names)
    return None


def _term(witness: Witness) -> ProofTerm:
    if isinstance(witness, str):
        return Var(witness)
    tag, left, right = witness
    if tag == "lam":
        return Lam(left, _term(right))
    return App(_term(left), _term(right))


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


def alpha_eq(a: ProofTerm, b: ProofTerm) -> bool:
    """Structural equality up to renaming of bound variables."""

    def go(a: ProofTerm, b: ProofTerm, ea: dict[str, int], eb: dict[str, int], depth: int) -> bool:
        if isinstance(a, Var) and isinstance(b, Var):
            return ea.get(a.name, a.name) == eb.get(b.name, b.name)
        if isinstance(a, Lam) and isinstance(b, Lam):
            return go(a.body, b.body, {**ea, a.bound: depth}, {**eb, b.bound: depth}, depth + 1)
        if isinstance(a, App) and isinstance(b, App):
            return go(a.fun, b.fun, ea, eb, depth) and go(a.arg, b.arg, ea, eb, depth)
        return False

    return go(a, b, {}, {}, 0)


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

"""Provability decisions, witness terms, type checking, normalization."""

import copy
import dataclasses
import itertools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import arrowlm
from arrowlm import prover
from arrowlm.formula import Atom, Imp, list_to_impl, parse_formula
from arrowlm.prover import (
    App,
    Lam,
    Var,
    format_term,
    prove,
    prove_with_term,
    type_check,
)

from oracles import alpha_eq, enumerate_formulas, lj_provable, nbe_normal_form, random_formula


def _right_nested(operands):
    """``f1->f2->...->fn``, built without the parser."""
    goal = operands[-1]
    for f in reversed(operands[:-1]):
        goal = Imp(f, goal)
    return goal


class TestProve:
    def test_left_nested_permutation_counterexample(self):
        assert not prove(parse_formula("((p->q)->r) -> ((q->p)->r)"))

    def test_right_nested_permutation_invariance(self):
        assert prove(parse_formula("(p->q->r) -> (q->p->r)"))

    def test_curried_form_does_not_entail_the_chain(self):
        # A chain entails its curried form (test_continuation_theorems), not the converse.
        assert not prove(parse_formula("(p->q->r) -> ((p->q)->r)"))

    def test_modus_ponens_chain(self):
        assert prove(parse_formula("((the->cat)->sits) -> (the->cat) -> sits"))

    def test_peirce_not_intuitionistic(self):
        assert not prove(parse_formula("((p->q)->p)->p"))

    def test_continuation_theorems(self):
        for text in (
            "((p->q)->r) -> (p->q->r)",
            "(((p->q)->a)->b) -> (p->q)->(a->b)",
            "((e->p)->q)->(p->q)",
            "e -> (((e->a)->b)->c) -> ((a->b)->c)",
        ):
            assert prove(parse_formula(text)), text

    def test_atom_unprovable(self):
        assert not prove(Atom("p"))

    def test_with_context(self):
        # A sequent's context is curried into the goal; a repeated hypothesis is assumed once.
        assert prove(parse_formula("p -> (p->q) -> q"))
        assert prove(parse_formula("p -> (p->q) -> p -> q"))
        assert not prove(parse_formula("p -> q"))

    def test_completion_of_chains(self):
        # chain of n tokens -> (prefix chain of n-1) -> last atom, n = 2..12
        for n in range(2, 13):
            toks = [Atom(f"w{i}") for i in range(n)]
            full = list_to_impl(toks)
            prefix = list_to_impl(toks[:-1])
            assert prove(Imp(full, Imp(prefix, toks[-1]))), n

    def test_order_sensitivity_of_chains(self):
        # for each length some permutation of the chain is not implied by it
        for n in range(3, 7):
            toks = [Atom(f"w{i}") for i in range(n)]
            chain = list_to_impl(toks)
            found = False
            for perm in itertools.permutations(toks):
                if list(perm) == toks:
                    continue
                if not prove(Imp(chain, list_to_impl(list(perm)))):
                    found = True
                    break
            assert found, n

    def test_permuted_chains_against_the_oracle(self):
        # chain(σw) -> chain(w) for each distinct rearrangement σw != w of every
        # chain of 2-3 tokens over {a, b, c}, repeats allowed, and of a b c d.
        words = [w for n in (2, 3) for w in itertools.product("abc", repeat=n)] + [tuple("abcd")]
        pairs = sorted({(p, w) for w in words for p in itertools.permutations(w) if p != w})

        def chain(word):
            return list_to_impl([Atom(t) for t in word])

        provable = set()
        for p, w in pairs:
            f = Imp(chain(p), chain(w))
            decided = prove(f)
            assert decided == lj_provable(f), (p, w)
            if decided:
                provable.add(("".join(p), "".join(w)))
        assert len(pairs) == 95
        # What the oracle finds, not a rule: only ((x->x)->y) -> ((y->x)->x).
        assert provable == {
            ("aab", "baa"), ("aac", "caa"), ("bba", "abb"),
            ("bbc", "cbb"), ("cca", "acc"), ("ccb", "bcc"),
        }

    def test_memo_bounds_the_search(self, count_calls):
        # Seed 2032 is the hardest of depth-7 seeds 0-3999 for the memo alone; the
        # unmemoized multiset-context search made 1,455,329 calls on it.
        f = random_formula(random.Random(2032), [Atom(w) for w in "pqr"], 7)
        search = count_calls(prover, "_search")
        assert not prove(f)
        assert search.calls <= 5_000

    def test_memo_bounds_the_search_past_the_head_rule(self, count_calls):
        # Seed 391 is the second hardest of depth-7 seeds 0-3999 with the head rule;
        # the same search without its memo makes 626,009 calls on it.
        f = random_formula(random.Random(391), [Atom(w) for w in "pqr"], 7)
        search = count_calls(prover, "_search")
        assert not prove(f)
        assert search.calls <= 5_000

    def test_head_rule_settles_the_memo_case_at_once(self, count_calls):
        # Without the head rule, the memoized search makes 4,244 calls here.
        f = random_formula(random.Random(2032), [Atom(w) for w in "pqr"], 7)
        search = count_calls(prover, "_search")
        assert not prove(f)
        assert search.calls <= 10

    def test_head_rule_refuses_an_atom_no_hypothesis_ends_in(self, count_calls):
        # Both hypotheses end in r, so q fails before any elimination is tried.
        goal = parse_formula("(p->r) -> ((q->p)->r) -> q")
        search = count_calls(prover, "_search")
        assert not prove(goal)
        assert search.calls == 1

    @pytest.mark.parametrize("n", [2, 3, 10_000])
    def test_right_nested_goal_is_one_call_at_any_length(self, count_calls, n):
        # An implication goal is a loop: its antecedents join the context once, with no frame each.
        search = count_calls(prover, "_search")
        assert prove(_right_nested([Atom("a")] * n))
        assert search.calls == 1
        search.calls = 0
        atoms = [Atom(f"a{i}") for i in range(n)]
        assert prove(_right_nested(atoms + atoms[:1]))
        assert search.calls == 1
        search.calls = 0
        assert not prove(_right_nested(atoms + [Atom("b")]))
        assert search.calls == 1

    def test_an_implication_to_a_known_formula_is_never_eliminated(self, count_calls):
        # b gives (c->d)->b for free, so the search never tries its left premise c->d,
        # whose head d would be memoized, but eliminates b->g and closes g: two calls.
        goal = parse_formula("((c->d)->b) -> b -> (b->g) -> g")
        memo: dict = {}
        search = count_calls(prover, "_search")
        assert prover._search(goal, (), frozenset(), memo) is not False
        assert search.calls == 2
        assert Atom("d") not in {atom for atom, _ in memo}
        assert prove(goal)


_WITNESS_SCRIPT = """
import random
from arrowlm.formula import Atom
from arrowlm.prover import format_term, prove_with_term
from oracles import random_formula

atoms = [Atom(w) for w in "pqr"]
rng = random.Random(5)
for _ in range(400):
    term = prove_with_term(random_formula(rng, atoms, 6))
    print("-" if term is None else format_term(term))
"""


class TestProveWithTerm:
    def test_k_combinator(self):
        term = prove_with_term(parse_formula("p->q->p"))
        assert alpha_eq(term, Lam("a", Lam("b", Var("a"))))

    def test_s_combinator(self):
        term = prove_with_term(parse_formula("(p->q->r)->(p->q)->p->r"))
        expected = Lam(
            "x",
            Lam("y", Lam("z", App(App(Var("x"), Var("z")), App(Var("y"), Var("z"))))),
        )
        assert alpha_eq(term, expected)

    def test_modus_ponens_term(self):
        term = prove_with_term(parse_formula("p->(p->q)->q"))
        assert alpha_eq(term, Lam("x", Lam("y", App(Var("y"), Var("x")))))

    def test_atom_has_no_witness(self):
        assert prove_with_term(Atom("p")) is None

    def test_continuation_theorem_witnesses_type_check(self):
        for text in (
            "((p->q)->r) -> (p->q->r)",
            "(((p->q)->a)->b) -> (p->q)->(a->b)",
            "((e->p)->q)->(p->q)",
            "e -> (((e->a)->b)->c) -> ((a->b)->c)",
        ):
            f = parse_formula(text)
            term = prove_with_term(f)
            assert term is not None and type_check(term, f), text

    def test_witnesses_are_beta_normal(self):
        # type_check rejects redexes; a lambda-valued auxiliary hypothesis gave three here.
        rng = random.Random(0)
        atoms = [Atom(w) for w in "pqr"]
        witnessed = 0
        for _ in range(600):
            f = random_formula(rng, atoms, 6)
            term = prove_with_term(f)
            if term is not None:
                witnessed += 1
                assert type_check(term, f)
        assert witnessed > 100

    def test_witnesses_do_not_depend_on_the_hash_seed(self):
        path = os.pathsep.join((str(Path(arrowlm.__file__).parents[1]), str(Path(__file__).parent)))

        def run(seed):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
            out = subprocess.run([sys.executable, "-c", _WITNESS_SCRIPT], env=env, check=True,
                                 capture_output=True, text=True, timeout=120)
            return out.stdout

        first = run("1")
        assert first.count("\\") > 100
        assert run("2") == first

    @pytest.mark.parametrize("f, provable", [
        # A search that memoized only failures made 57,043 calls here, ten times the memoized one.
        (random_formula(random.Random(2316), [Atom(w) for w in "pqr"], 8), False),
        # The left premise q->q closes as an axiom, so the memo holds no entry for it;
        # a witness that searched for what the memo lacks made one call more than the decision.
        (parse_formula("((q->q)->q)->q"), True),
    ], ids=["unprovable", "provable"])
    def test_a_witness_costs_only_the_decision(self, count_calls, f, provable):
        search = count_calls(prover, "_search")
        assert prove(f) is provable
        decided, search.calls = search.calls, 0
        term = prove_with_term(f)
        assert (term is not None) is provable
        assert search.calls == decided

    def test_agreement_with_prove(self):
        rng = random.Random(11)
        atoms = [Atom(w) for w in "p q r s".split()]
        for _ in range(2000):
            f = random_formula(rng, atoms, 6)
            assert prove(f) == (prove_with_term(f) is not None)


def sample_terms():
    return (Var("x"), Lam("x", Var("y")), App(Var("x"), Var("y")),
            Lam("x", App(Var("x"), Lam("y", Var("x")))))


class TestTerms:
    TERMS = sample_terms()

    def test_equal_by_structure_and_hashable(self):
        twins = sample_terms()
        for term, twin in zip(self.TERMS, twins):
            assert term == twin and term is not twin and hash(term) == hash(twin)
        assert len(set(self.TERMS + twins)) == len(self.TERMS)
        assert Var("x") != Var("y") and App(Var("x"), Var("y")) != App(Var("y"), Var("x"))

    def test_classes_never_compare_equal(self):
        assert Lam("x", Var("y")) != App(Var("x"), Var("y"))
        assert App(Var("x"), Var("y")) != Lam("x", Var("y"))
        assert Var("x") != "x"

    def test_fields_are_read_only(self):
        first_field = {Var: "name", Lam: "bound", App: "fun"}
        for term in self.TERMS:
            name = first_field[type(term)]
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(term, name, "z")
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(term, name)
            with pytest.raises(dataclasses.FrozenInstanceError):
                term.extra = 1

    def test_survive_pickle_and_copy(self):
        for term in self.TERMS:
            for clone in (pickle.loads(pickle.dumps(term)), copy.deepcopy(term), copy.copy(term)):
                assert clone == term and type(clone) is type(term) and repr(clone) == repr(term)

    def test_repr_names_the_fields(self):
        assert repr(Lam("x", App(Var("x"), Var("y")))) == (
            "Lam(bound='x', body=App(fun=Var(name='x'), arg=Var(name='y')))"
        )
        assert Var(name="x") == Var("x") and App(fun=Var("f"), arg=Var("a")) == App(Var("f"), Var("a"))


class TestTypeCheck:
    def test_identity(self):
        assert type_check(Lam("x", Var("x")), parse_formula("p->p"))

    def test_s_term_against_s_type(self):
        f = parse_formula("(p->q->r)->(p->q)->p->r")
        assert type_check(prove_with_term(f), f)

    def test_atom_mismatch(self):
        assert not type_check(Lam("x", Var("x")), parse_formula("p->q"))

    def test_unbound_variable(self):
        assert not type_check(Var("x"), Atom("p"))

    def test_argument_of_the_wrong_type(self):
        # \f.\y. f y needs y : p to apply f : p->q, and here y : r.
        term = Lam("f", Lam("y", App(Var("f"), Var("y"))))
        assert not type_check(term, parse_formula("(p->q)->r->q"))
        assert type_check(term, parse_formula("(p->q)->p->q"))

    def test_redex(self):
        # \y. (\x. x) y: the redex's head is a lambda, which cannot synthesize.
        assert not type_check(Lam("y", App(Lam("x", Var("x")), Var("y"))), parse_formula("p->p"))

    def test_unbound_argument(self):
        assert not type_check(Lam("f", App(Var("f"), Var("z"))), parse_formula("(p->q)->q"))

    def test_terms_of_any_depth(self):
        # A 10,000-binder witness and a 10,000-deep argument spine: one loop, no frame per node.
        a = Atom("a")
        chain = _right_nested([a] * 10_000)
        term = prove_with_term(chain)
        assert type_check(term, chain)
        assert not type_check(term, _right_nested([a] * 9_999 + [Atom("b")]))
        body = Var("x")
        for _ in range(10_000):
            body = App(Var("f"), body)
        assert type_check(Lam("f", Lam("x", body)), parse_formula("(a->a)->a->a"))
        assert not type_check(Lam("f", Lam("x", body)), parse_formula("(a->b)->a->b"))


class TestBetaNormalize:
    """The NbE oracle reduces: one that returned its input unchanged would pass every witness check."""

    def test_skk_is_identity(self):
        s = prove_with_term(parse_formula("(p->q->r)->(p->q)->p->r"))
        k = prove_with_term(parse_formula("p->q->p"))
        assert alpha_eq(nbe_normal_form(App(App(App(s, k), k), Var("arg"))), Var("arg"))

    def test_capture_avoidance(self):
        # (\x.\y.x) y must not capture the free y.
        normal = nbe_normal_form(App(Lam("x", Lam("y", Var("x"))), Var("y")))
        assert isinstance(normal, Lam)
        assert normal.body == Var("y")
        assert normal.bound != "y"


def formula_of_size(rng, atoms, arrows):
    """A random formula with exactly ``arrows`` implications."""
    if arrows == 0:
        return rng.choice(atoms)
    left = rng.randrange(arrows)
    return Imp(formula_of_size(rng, atoms, left), formula_of_size(rng, atoms, arrows - 1 - left))


class TestOracleAgreement:
    def test_small_formulas_against_sequent_search(self):
        atoms = [Atom("p"), Atom("q")]
        formulas = enumerate_formulas(atoms, 4)
        assert len(formulas) == 2 + 4 + 16 + 80 + 448
        for f in formulas:
            assert prove(f) is lj_provable(f)

    def test_random_formulas_against_sequent_search(self):
        # Four atoms and 1-8 arrows, past the exhaustive sizes above; every witness type-checks.
        rng, atoms, witnessed = random.Random(23), [Atom(w) for w in "pqrs"], 0
        for _ in range(6000):
            f = formula_of_size(rng, atoms, rng.randint(1, 8))
            decided, term = prove(f), prove_with_term(f)
            assert decided == lj_provable(f) == (term is not None), f
            if term is not None:
                witnessed += 1
                assert type_check(term, f), f
        assert witnessed > 1000

    def test_witnesses_type_check_small(self):
        atoms = [Atom("p"), Atom("q")]
        for f in enumerate_formulas(atoms, 5):
            term = prove_with_term(f)
            if term is not None:
                assert type_check(term, f)


class TestFormatTerm:
    def test_shapes(self):
        t = Lam("x", App(Var("x"), Lam("y", Var("y"))))
        assert format_term(t) == "\\x.x (\\y.y)"
        assert format_term(App(App(Var("f"), Var("a")), Var("b"))) == "f a b"

    def test_terms_of_any_depth(self):
        # A 10,000-deep argument nesting that type_check accepts, and a 10,000-long spine.
        body = Var("x")
        for _ in range(10_000):
            body = App(Var("f"), body)
        numeral = Lam("f", Lam("x", body))
        assert type_check(numeral, parse_formula("(a->a)->a->a"))
        assert format_term(numeral) == "\\f.\\x." + "f (" * 9_999 + "f x" + ")" * 9_999
        spine = Var("f")
        for _ in range(10_000):
            spine = App(spine, Var("x"))
        assert format_term(spine) == "f" + " x" * 10_000

"""Chain encodings, parsing/printing, and fragment enumeration."""

import copy
import gc
import pickle
import random
import weakref
from dataclasses import FrozenInstanceError

import pytest

from arrowlm import formula, prover
from arrowlm.formula import (
    Atom,
    EmptyTokenList,
    FormulaSyntaxError,
    Imp,
    list_to_impl,
    parse_formula,
    print_formula,
)
from arrowlm.prover import prove

from oracles import NotAChain, contiguous_subsequences, impl_to_list, suffix_prefixes


def atoms(text):
    return [Atom(w) for w in text.split()]


class TestListToImpl:
    def test_six_token_chain(self):
        chain = list_to_impl(atoms("the cat sits on the map"))
        expected = parse_formula("(((((the->cat)->sits)->on)->the)->map)")
        assert chain == expected

    def test_single_token(self):
        (x,) = atoms("x")
        assert list_to_impl([x]) == x

    def test_empty_rejected(self):
        with pytest.raises(EmptyTokenList):
            list_to_impl([])

    def test_round_trip_random(self):
        rng = random.Random(7)
        words = "a b c d e f g".split()
        for _ in range(500):
            toks = [Atom(rng.choice(words)) for _ in range(rng.randint(1, 30))]
            assert impl_to_list(list_to_impl(toks)) == toks


class TestImplToList:
    def test_three_token_chain(self):
        f = parse_formula("(the->cat)->sits")
        assert [a.surface for a in impl_to_list(f)] == ["the", "cat", "sits"]

    def test_single_atom(self):
        p = Atom("p")
        assert impl_to_list(p) == [p]

    def test_right_nested_rejected(self):
        with pytest.raises(NotAChain):
            impl_to_list(parse_formula("p->(q->r)"))


class TestParse:
    def test_right_associative(self):
        p, q = atoms("p q")
        assert parse_formula("p->q->p") == Imp(p, Imp(q, p))

    def test_parenthesized_antecedent(self):
        p, q, r = atoms("p q r")
        assert parse_formula("((p->q)->r)") == Imp(Imp(p, q), r)

    def test_dangling_arrow(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("p->")
        assert err.value.offset == 3

    def test_unexpected_character(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("p & q")
        assert err.value.offset == 2

    def test_unbalanced_paren(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("(p->q")
        with pytest.raises(FormulaSyntaxError):
            parse_formula("p)->q")

    def test_word_atoms(self):
        f = parse_formula("don't->x_1")
        assert isinstance(f, Imp)
        assert f.antecedent.surface == "don't"
        assert f.consequent.surface == "x_1"


class TestPrint:
    def test_antecedent_parenthesized(self):
        p, q, r = atoms("p q r")
        assert print_formula(Imp(Imp(p, q), r)) == "(p->q)->r"

    def test_chain_print(self):
        chain = list_to_impl(atoms("the cat sits"))
        assert print_formula(chain) == "(the->cat)->sits"
        # structurally equal to the fully parenthesized rendering
        assert parse_formula("((the->cat)->sits)") == chain

    def test_atom(self):
        assert print_formula(Atom("p")) == "p"

    def test_parse_print_identity_random(self):
        rng = random.Random(123)
        names = [Atom(w) for w in "p q r s".split()]

        def build(depth):
            if depth == 0 or rng.random() < 0.4:
                return rng.choice(names)
            return Imp(build(depth - 1), build(depth - 1))

        for _ in range(10_000):
            f = build(10)
            assert parse_formula(print_formula(f)) == f


def chain_text(words):
    """``((w1->w2)->w3)->...``, written out without the printer."""
    return "(" * (len(words) - 2) + words[0] + "".join(f"->{w})" for w in words[1:-1]) + "->" + words[-1]


class TestDeepInput:
    def test_ten_thousand_atom_chain(self):
        words = [f"w{i % 7}" for i in range(10_000)]
        built = list_to_impl([Atom(w) for w in words])
        twin = list_to_impl([Atom(w) for w in words])
        assert print_formula(built) == chain_text(words)
        assert built == twin
        assert hash(built) == hash(twin)
        assert [a.surface for a in impl_to_list(built)] == words
        # An arrow chain is a loop in the parser; only parentheses nest frames.
        flat = "->".join(words)
        assert print_formula(parse_formula(flat)) == flat
        prefix = words[:300]
        assert parse_formula(chain_text(prefix)) == list_to_impl([Atom(w) for w in prefix])

    def test_error_offsets_deep_in_long_input(self):
        body = "->".join(["p"] * 4_000)
        # Lexing precedes parsing: the multibyte character is reported, not the stray ')'.
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula(f"({body}->q)) ->\u00e9")
        assert str(err.value) == f"unexpected character '\u00e9' (byte {len(body) + 9})"
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula(f"({body}->q)) ->r")
        assert str(err.value) == f"unexpected trailing input (byte {len(body) + 5})"
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("(" * 300 + "p")
        assert str(err.value) == "expected ')' (byte 301)"


class TestHashConsing:
    def test_equal_formulas_are_one_object(self):
        p, q = atoms("p q")
        assert Imp(Imp(p, q), p) is parse_formula("(p->q)->p")
        assert Atom(p.surface) is p
        assert Imp(p, q) != Imp(q, p)

    def test_an_atom_is_its_spelling(self):
        # Separate parses share their atoms, so hypotheses parsed apart from the goal prove it.
        assert Atom("p") is parse_formula("p")
        assert parse_formula("p->q").consequent is parse_formula("q")
        assert prove(Imp(parse_formula("p->q"), Imp(parse_formula("p"), parse_formula("q"))))
        assert repr(Atom("p")) == "Atom('p')"

    def test_table_holds_only_live_formulas(self):
        before = len(formula._NODES)
        f = parse_formula("(hc_a->hc_b)->hc_c->hc_d")
        assert len(formula._NODES) == before + 4 + 3
        del f
        assert len(formula._NODES) == before

    def test_nodes_are_frozen(self):
        p, q = atoms("p q")
        imp = Imp(p, q)
        with pytest.raises(FrozenInstanceError):
            imp.consequent = p
        with pytest.raises(FrozenInstanceError):
            p.surface = "q"
        with pytest.raises(FrozenInstanceError):
            del imp.antecedent
        assert Imp(p, q) is imp and imp.consequent is q and p.surface == "p"

    def test_rebuilt_while_the_collector_runs_callbacks(self):
        # The collector clears the node's weak reference, then runs this
        # callback, which builds an equal node, and only then the table's own.
        p, q = atoms("p q")
        rebuilt = []

        class Holder:
            pass

        holder = Holder()
        holder.cycle = holder
        holder.formula = Imp(p, q)
        watch = weakref.ref(holder, lambda _: rebuilt.append(Imp(p, q)))
        del holder
        gc.collect()
        assert watch() is None and len(rebuilt) == 1
        assert Imp(p, q) is rebuilt[0]

    def test_every_way_of_building_gives_one_object(self, monkeypatch):
        # Constructors, the parser, the chain encoding, pickle and the prover's
        # auxiliary D->B all build through one table; once all are dropped, it is as before.
        before = len(formula._NODES)
        a, b = atoms("hc_a hc_b")
        built = Imp(Imp(a, b), a)
        assert parse_formula("(hc_a->hc_b)->hc_a") is built
        assert list_to_impl([Atom("hc_a"), parse_formula("hc_b"), a]) is built
        assert pickle.loads(pickle.dumps(built)) is built
        contexts, search = [], prover._search

        def recording(goal, hyps, known, memo):
            contexts.append(known)
            return search(goal, hyps, known, memo)

        # Eliminating (c->b)->a proves c->b under the auxiliary b->a.
        monkeypatch.setattr(prover, "_search", recording)
        assert not prove(Imp(parse_formula("(hc_c->hc_b)->hc_a"), parse_formula("hc_a")))
        (aux,) = contexts[1]
        assert aux is Imp(b, a) is parse_formula("hc_b->hc_a") is pickle.loads(pickle.dumps(aux))
        del a, b, built, contexts, aux
        assert len(formula._NODES) == before

    def test_pickle_and_copy_keep_identity(self):
        f = parse_formula("(p->q)->p")
        p = Atom("p")
        for node in (f, p):
            assert pickle.loads(pickle.dumps(node)) is node
            assert copy.deepcopy(node) is node


class TestSuffixPrefixes:
    def test_reference_enumeration(self):
        f = parse_formula("(((the->little)->cat)->sits)")
        got = [print_formula(g) for g in suffix_prefixes(f)]
        assert got == [
            "sits",
            "cat->sits",
            "cat",
            "(little->cat)->sits",
            "little->cat",
            "little",
            "((the->little)->cat)->sits",
            "(the->little)->cat",
            "the->little",
            "the",
        ]

    def test_single_atom(self):
        p = Atom("p")
        assert suffix_prefixes(p) == [p]

    def test_not_a_chain(self):
        with pytest.raises(NotAChain):
            suffix_prefixes(parse_formula("p->(q->r)"))

    def test_counts_up_to_64(self):
        for n in range(1, 65):
            toks = [Atom(f"w{i}") for i in range(n)]
            assert len(suffix_prefixes(list_to_impl(toks))) == n * (n + 1) // 2

    def test_seven_token_chain_matches_brute_force(self):
        rng = random.Random(99)
        words = "a b c".split()
        toks = [Atom(rng.choice(words)) for _ in range(7)]
        frags = suffix_prefixes(list_to_impl(toks))
        assert len(frags) == 28
        expected = {
            list_to_impl(list(sub)) for sub in contiguous_subsequences(toks)
        }
        assert set(frags) == expected

    def test_fragment_subsequence_equivalence_exhaustive(self):
        # all 3^1 + ... + 3^8 chains over a 3-word alphabet
        import itertools

        words = [Atom(w) for w in ("a", "b", "c")]
        for n in range(1, 9):
            for toks in itertools.product(words, repeat=n):
                chain = list_to_impl(toks)
                frag_set = set(suffix_prefixes(chain))
                sub_set = {list_to_impl(list(s)) for s in contiguous_subsequences(toks)}
                assert frag_set == sub_set

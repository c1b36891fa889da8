"""Sentence store, exact and wildcard queries, agreement with brute-force scans."""

import gc
import random

import pytest

from arrowlm import formula
from arrowlm.formula import Atom, list_to_impl
from arrowlm.retrieval import (
    EmptyQuery,
    EmptySentence,
    Wildcard,
    build_db,
    query_pattern,
)

from oracles import impl_to_list, pattern_windows, query_text, scan_matches, suffix_prefixes

TOY = [
    "the cat sits on the mat",
    "the dog sits on the log",
    "the cat chases the mouse",
    "the dog chases the cat",
]


@pytest.fixture
def db():
    return build_db([s.split() for s in TOY])


def hit_ids(db, words):
    """The ids of the sentences ``words`` occur in, once each, in id order."""
    return list(dict.fromkeys(sid for sid, _ in db.occurrences(words)))


def texts(db, sids):
    return [" ".join(db.sentences[sid]) for sid in sids]


def chain(words):
    """The left-nested formula of ``words``; the store itself keeps none."""
    return list_to_impl([Atom(w) for w in words])


class TestBuildDb:
    def test_toy_corpus_stored(self, db):
        assert len(db) == 4
        mat = chain(db.sentences[0])
        assert [a.surface for a in impl_to_list(mat)] == TOY[0].split()

    def test_formulas_pairwise_distinct(self, db):
        formulas = [chain(s) for s in db.sentences]
        assert len({id(f) for f in formulas}) == len(formulas)
        for i, f in enumerate(formulas):
            for g in formulas[i + 1 :]:
                assert f != g

    def test_results_carry_the_sentence(self, db):
        [(_, sid, sent)] = query_pattern(db, db.parse_pattern(TOY[1]))
        assert sent is db.sentences[sid] and sent == tuple(TOY[1].split())
        assert [a.surface for a in impl_to_list(chain(sent))] == TOY[1].split()

    def test_stores_plain_words(self):
        gc.collect()
        before = len(formula._NODES)
        db = build_db([["plain_a", "plain_b"], ["plain_c", "plain_a"]])
        assert len(formula._NODES) == before
        assert db.sentences == (("plain_a", "plain_b"), ("plain_c", "plain_a"))

    def test_duplicates_stored_once(self):
        db = build_db([["a", "b"], ["a", "b"], ["b", "a"]])
        assert len(db) == 2

    def test_empty_sentence_rejected(self):
        with pytest.raises(EmptySentence):
            build_db([["a"], []])

    def test_k_max_is_checked_and_stored(self):
        assert build_db([["a"]], k_max=1).k_max == 1
        with pytest.raises(ValueError):
            build_db([["a"]], k_max=0)

    def test_index_offsets_valid(self, db):
        # One entry per stored token, in (sentence id, offset) order.
        for word, hits in db.positions.items():
            assert list(hits) == sorted(set(hits))
            assert all(db.sentences[sid][off] == word for sid, off in hits)
        assert sum(map(len, db.positions.values())) == sum(map(len, db.sentences))


class TestQueryExact:
    def test_the_cat_returns_three(self, db):
        got = texts(db, hit_ids(db, ["the", "cat"]))
        assert got == [TOY[0], TOY[2], TOY[3]]

    def test_sits(self, db):
        got = texts(db, hit_ids(db, ["sits"]))
        assert got == [TOY[0], TOY[1]]

    def test_absent_tokens(self, db):
        assert db.occurrences(["purple", "unicorn"]) == []

    def test_empty_query_has_no_occurrences(self, db):
        assert db.occurrences([]) == []

    def test_whole_sentence_query(self, db):
        words = TOY[0].split()  # 6 words, longer than any n-gram a store used to index
        got = texts(db, hit_ids(db, words))
        assert got == [TOY[0]]

    def test_no_duplicate_ids(self):
        db = build_db([["a", "b", "a", "b"]])
        assert db.occurrences(["a", "b"]) == [(0, 0), (0, 2)]
        assert query_text(db, "a b") == ["a b a b"]

    def test_membership_matches_fragment_semantics(self, db):
        # query hits iff the query chain is a suffix-prefix fragment
        for words in (["the", "cat"], ["sits", "on"], ["the"], ["cat", "sits", "on"]):
            hits = set(hit_ids(db, words))
            for sid, sent in enumerate(db.sentences):
                in_frags = chain(words) in suffix_prefixes(chain(sent))
                assert (sid in hits) == in_frags


class TestQueryPattern:
    def test_the_x_chases(self, db):
        items = db.parse_pattern("the ?x chases")
        results = query_pattern(db, items)
        got = {(b["x"], " ".join(db.sentences[sid])) for b, sid, _ in results}
        assert got == {("cat", TOY[2]), ("dog", TOY[3])}

    def test_single_wildcard_matches_every_sentence(self, db):
        results = query_pattern(db, [Wildcard("w")])
        per_sentence = {}
        for bindings, sid, _ in results:
            per_sentence.setdefault(sid, set()).add(bindings["w"])
        assert set(per_sentence) == {0, 1, 2, 3}
        for sid, words in per_sentence.items():
            assert words == set(db.sentences[sid])

    def test_repeated_name_requires_same_word(self, db):
        # no sentence in the toy corpus repeats a word adjacently
        assert query_pattern(db, [Wildcard("x"), Wildcard("x")]) == []
        db2 = build_db([["very", "very", "good"]])
        results = query_pattern(db2, [Wildcard("x"), Wildcard("x")])
        assert [(b["x"], sid) for b, sid, _ in results] == [("very", 0)]

    def test_anonymous_wildcards_bind_nothing(self, db):
        results = query_pattern(db, [Wildcard(), Wildcard("x"), Wildcard()])
        assert all(set(b) == {"x"} for b, _, _ in results)

    def test_unknown_word_pattern_matches_nothing(self, db):
        items = db.parse_pattern("The zz chases")
        assert items == ["the", "zz", "chases"]
        assert query_pattern(db, items) == []
        assert query_pattern(db, db.parse_pattern("?x zz")) == []

    def test_empty_pattern_rejected(self, db):
        with pytest.raises(EmptyQuery):
            query_pattern(db, [])


class TestQueryText:
    def test_lowercasing(self, db):
        assert query_text(db, "The Cat") == query_text(db, "the cat")
        assert len(query_text(db, "The Cat")) == 3

    def test_whitespace_only_rejected(self, db):
        with pytest.raises(EmptyQuery):
            query_text(db, "   ")

    def test_the_dog_sits(self, db):
        assert query_text(db, "the dog sits") == [TOY[1]]

    def test_uses_the_corpus_normalizer(self, db):
        assert query_text(db, "The cat,") == query_text(db, "the cat")
        assert query_text(db, "dog sits!") == [TOY[1]]
        with pytest.raises(EmptyQuery):
            query_text(db, "?!")


class TestIndexScanAgreement:
    def test_random_corpora(self):
        rng = random.Random(2024)
        words = [f"w{i}" for i in range(6)]
        long_hits = 0
        for trial in range(100):
            sentences = [
                [rng.choice(words) for _ in range(rng.randint(1, 14))]
                for _ in range(rng.randint(1, 12))
            ]
            db = build_db(sentences)
            stored = db.sentences
            for qlen in range(1, 10):
                source = rng.choice(stored)
                if trial % 2 and len(source) >= qlen:  # a stored window, so long queries hit
                    off = rng.randrange(len(source) - qlen + 1)
                    query = list(source[off : off + qlen])
                else:
                    query = [rng.choice(words) for _ in range(qlen)]
                hits = scan_matches(stored, query)
                assert hit_ids(db, query) == hits
                windows = pattern_windows(stored, query)
                assert db.occurrences(query) == [(sid, off) for sid, off, _ in windows]
                long_hits += qlen > 5 and bool(hits)
        assert long_hits > 50

    def test_occurrences_come_in_id_and_offset_order(self):
        # retrieval_first relies on this order without sorting.  The anchor is
        # the query's rarest word; here it is often not the first one.
        rng = random.Random(2026)
        anchored_later = 0
        for _ in range(100):
            sentences = [
                [rng.choice("aaab") for _ in range(rng.randint(1, 12))]
                for _ in range(rng.randint(1, 12))
            ]
            db = build_db(sentences)
            for _ in range(10):
                query = [rng.choice("ab") for _ in range(rng.randint(2, 4))]
                got = db.occurrences(query)
                assert got == sorted(got), query
                rarest = min(query, key=lambda w: len(db.positions.get(w, ())))
                repeated = len(set(query)) < len(query)
                anchored_later += bool(got) and repeated and query.index(rarest) > 0
        assert anchored_later > 50

    def test_patterns_random_corpora(self):
        rng = random.Random(2025)
        words = ["a", "b", "c", "d"]
        wildcards = ["_", "?x", "?x", "?y", "?"]
        checked = {"repeated": 0, "wildcards only": 0}
        for trial in range(100):
            sentences = [
                [rng.choice(words[:3]) for _ in range(rng.randint(1, 10))]
                for _ in range(rng.randint(1, 10))
            ]
            db = build_db(sentences)
            stored = db.sentences
            for _ in range(20):
                pool = wildcards if trial % 4 == 0 else words + wildcards
                parts = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
                items = db.parse_pattern(" ".join(parts))
                got = [(b, sid) for b, sid, _ in query_pattern(db, items)] if items else []
                expected, keys = [], set()
                for sid, _, bindings in pattern_windows(stored, parts):
                    key = (tuple(sorted(bindings.items())), sid)
                    if key not in keys:
                        keys.add(key)
                        expected.append((bindings, sid))
                assert got == expected, parts
                if expected:
                    checked["repeated"] += parts.count("?x") > 1
                    checked["wildcards only"] += set(parts) <= set(wildcards)
        assert min(checked.values()) > 50

    def test_semantic_equivalence_random_sentences(self):
        # hit <=> contiguous subsequence <=> fragment membership
        rng = random.Random(77)
        words = ["a", "b", "c", "d"]
        sentences = [
            [rng.choice(words) for _ in range(rng.randint(1, 12))] for _ in range(100)
        ]
        db = build_db(sentences)
        for _ in range(200):
            qlen = rng.randint(1, 6)
            query = [rng.choice(words) for _ in range(qlen)]
            hits = set(hit_ids(db, query))
            query_chain = chain(query)
            for sid, sent in enumerate(db.sentences):
                is_subseq = any(
                    sent[i : i + qlen] == tuple(query) for i in range(len(sent) - qlen + 1)
                )
                in_frags = query_chain in suffix_prefixes(chain(sent))
                assert is_subseq == in_frags == (sid in hits)

"""Text cleanup, sentence splitting, vocabulary, fragment enumeration."""

import hashlib

import pytest

from arrowlm.corpus import (
    EOS_WORD,
    PAD_WORD,
    EmptyCorpus,
    Vocab,
    build_vocab,
    enumerate_fragments,
    read_sentences,
    read_vocab,
    split_sentences,
    strip_boilerplate,
    write_fragments,
    write_sentences,
    write_vocab,
)

from conftest import TOY_RAW


class TestStripBoilerplate:
    def test_markers_present(self):
        raw = (
            "junk header\n*** START OF THE PROJECT GUTENBERG EBOOK X ***\n"
            "body line one\nbody line two\n"
            "*** END OF THE PROJECT GUTENBERG EBOOK X ***\nlicense junk\n"
        )
        assert strip_boilerplate(raw) == "body line one\nbody line two\n"

    def test_markers_absent_warns(self):
        with pytest.warns(UserWarning):
            assert strip_boilerplate("plain text") == "plain text"

    def test_empty_text_warns(self):
        with pytest.warns(UserWarning):
            assert strip_boilerplate("") == ""


class TestSplitSentences:
    def test_basic(self):
        got = split_sentences("The cat sits on the mat. The dog barks!")
        assert got == [["the", "cat", "sits", "on", "the", "mat"], ["the", "dog", "barks"]]

    def test_naive_abbreviation_split(self):
        assert split_sentences("Mr. Smith left.") == [["mr"], ["smith", "left"]]

    def test_punctuation_only(self):
        assert split_sentences("!!!") == []

    def test_apostrophes_kept(self):
        assert split_sentences("Don't stop.") == [["don't", "stop"]]

    def test_strips_other_characters(self):
        assert split_sentences("num 3,14; ok?") == [["num", "314", "ok"]]

    def test_newlines_are_word_separators(self):
        assert split_sentences("the cat\nsits.") == [["the", "cat", "sits"]]

    def test_truncation(self):
        long = " ".join(f"w{i}" for i in range(300)) + "."
        (sent,) = split_sentences(long, max_len=256)
        assert len(sent) == 256
        (short,) = split_sentences("a b c d.", max_len=2)
        assert short == ["a", "b"]


class TestBuildVocab:
    def test_toy_corpus_counts(self):
        sents = split_sentences(TOY_RAW)
        vocab = build_vocab(sents)
        assert len(vocab) == 9 + 2  # content words + eos + pad
        assert vocab.words[-2:] == (EOS_WORD, PAD_WORD)
        assert vocab.eos_id == 9 and vocab.pad_id == 10
        assert vocab.words[0] == "the"  # first-occurrence order

    def test_single_repeated_word(self):
        vocab = build_vocab([["a", "a", "a"]])
        assert len(vocab) == 1 + 2

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            build_vocab([])

    def test_encode_decode(self):
        vocab = build_vocab([["a", "b"]])
        assert vocab.decode(vocab.encode(["b", "a"])) == ["b", "a"]


class TestEnumerateFragments:
    def test_three_tokens_k5(self):
        vocab = build_vocab([["a", "b", "c"]])
        ts = enumerate_fragments([["a", "b", "c"]], vocab, k_frag=5)
        frags = {tuple(vocab.decode(f)) for f in ts.fragments}
        assert frags == {
            ("a", "b"),
            ("b", "c"),
            ("a", "b", "c"),
            ("a", "b", "c", EOS_WORD),
        }

    def test_three_tokens_k2(self):
        vocab = build_vocab([["a", "b", "c"]])
        ts = enumerate_fragments([["a", "b", "c"]], vocab, k_frag=2)
        frags = {tuple(vocab.decode(f)) for f in ts.fragments}
        assert frags == {("a", "b"), ("b", "c"), ("a", "b", "c", EOS_WORD)}

    def test_duplicate_sentences_dedup(self):
        vocab = build_vocab([["a", "b"], ["a", "b"]])
        once = enumerate_fragments([["a", "b"]], vocab)
        twice = enumerate_fragments([["a", "b"], ["a", "b"]], vocab)
        assert once.fragments == twice.fragments

    def test_k_frag_lower_bound(self):
        vocab = build_vocab([["a", "b"]])
        with pytest.raises(ValueError):
            enumerate_fragments([["a", "b"]], vocab, k_frag=1)

    def test_fragments_occur_in_the_sentences(self):
        sents = split_sentences(TOY_RAW)
        vocab = build_vocab(sents)
        ts = enumerate_fragments(sents, vocab, k_frag=5)
        for frag in ts.fragments:
            words = vocab.decode(frag)
            if words[-1] == EOS_WORD:
                assert words[:-1] in sents
            else:
                assert any(
                    sent[off : off + len(words)] == words for sent in sents for off in range(len(sent))
                ), words

    def test_linear_size_bound(self):
        sents = split_sentences(TOY_RAW)
        vocab = build_vocab(sents)
        for k in (2, 3, 5):
            ts = enumerate_fragments(sents, vocab, k_frag=k)
            bound = sum(len(s) * (k - 1) for s in sents) + len(sents)
            assert len(ts.fragments) <= bound

    def test_no_pad_and_interior_fragments_lack_eos(self):
        sents = split_sentences(TOY_RAW)
        vocab = build_vocab(sents)
        ts = enumerate_fragments(sents, vocab, k_frag=5)
        for frag in ts.fragments:
            assert vocab.pad_id not in frag
            assert vocab.eos_id not in frag[:-1]


class TestFileFormats:
    def test_round_trips_and_determinism(self, tmp_path):
        sents = split_sentences(TOY_RAW)
        vocab = build_vocab(sents)
        ts = enumerate_fragments(sents, vocab)
        digests = []
        for run in ("one", "two"):
            base = tmp_path / run
            base.mkdir()
            write_sentences(base / "sentences.txt", sents)
            write_vocab(base / "vocab.txt", vocab)
            write_fragments(base / "fragments.txt", ts, vocab)
            digests.append(
                tuple(
                    hashlib.sha256((base / name).read_bytes()).hexdigest()
                    for name in ("sentences.txt", "vocab.txt", "fragments.txt")
                )
            )
        assert digests[0] == digests[1]
        assert read_sentences(tmp_path / "one" / "sentences.txt") == sents
        assert read_vocab(tmp_path / "one" / "vocab.txt").words == vocab.words

    def test_vocab_must_end_with_specials(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("a\nb\n")
        with pytest.raises(Exception):
            read_vocab(path)

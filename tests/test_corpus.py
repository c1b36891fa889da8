"""Text cleanup, sentence splitting, vocabulary, fragment enumeration."""

import hashlib
import re
import sys
import warnings
from pathlib import Path

import pytest

from arrowlm.corpus import (
    EOS_WORD,
    PAD_WORD,
    CorpusError,
    EmptyCorpus,
    Vocab,
    build_vocab,
    enumerate_fragments,
    normalize_words,
    read_sentences,
    read_vocab,
    split_sentences,
    strip_boilerplate,
    write_fragments,
    write_sentences,
)

from conftest import TOY_RAW
from oracles import fragments_file

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from fixtures import zipf_text  # noqa: E402

# A sentence with no words, one word, one repeated, and one longer than every max_len below.
EDGE_SENTENCES = [[], ["solo"], ["a", "b", "a", "b"], ["a", "b", "a", "b"], [f"w{i}" for i in range(300)]]


@pytest.fixture(scope="module")
def zipf_corpora():
    return [split_sentences(strip_boilerplate(zipf_text(seed, 40))) for seed in (1, 2, 3)]


@pytest.fixture(scope="module")
def raw_texts():
    """The toy text, edge sentences as raw text, and eight seeded Zipfian texts."""
    edge = "Solo. A b a b. A b a b. " + " ".join(f"w{i}" for i in range(300)) + "."
    return [TOY_RAW, edge] + [zipf_text(seed, 30) for seed in range(10, 18)]


class TestStripBoilerplate:
    def test_markers_present(self):
        raw = (
            "junk header\n*** START OF THE PROJECT GUTENBERG EBOOK X ***\n"
            "body line one\nbody line two\n"
            "*** END OF THE PROJECT GUTENBERG EBOOK X ***\nlicense junk\n"
        )
        assert strip_boilerplate(raw) == "body line one\nbody line two\n"

    @pytest.mark.parametrize("raw", ["plain text", "", "*** START OF X ***\nno end marker\n"],
                             ids=["plain", "empty", "no-end-marker"])
    def test_markers_absent_keep_the_text_without_a_warning(self, raw):
        # Missing markers are a normal input: cmd_corpus records them from body == raw.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert strip_boilerplate(raw) == raw


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

    @pytest.mark.parametrize("space", ["\u00a0", "\u2003", "\u000b", "\u0085"],
                             ids=["no-break-space", "em-space", "line-tab", "next-line"])
    def test_unicode_whitespace_separates_words(self, space):
        # Queries and sentences split where str.split does, not only at ASCII spaces.
        assert normalize_words(f"The{space}cat") == ["the", "cat"]
        got = split_sentences(f"The{space}cat sits. A{space}dog!")
        assert got == [["the", "cat", "sits"], ["a", "dog"]]

    def test_truncation(self):
        long = " ".join(f"w{i}" for i in range(300)) + "."
        (sent,) = split_sentences(long, max_len=256)
        assert len(sent) == 256
        (short,) = split_sentences("a b c d.", max_len=2)
        assert short == ["a", "b"]

    def test_max_len_lower_bound(self):
        # max_len 0 would keep empty sentences, and the one-token fragment (EOS,) after them.
        with pytest.raises(ValueError, match="max_len"):
            split_sentences("a b. c.", max_len=0)


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

    def test_duplicate_words_are_refused(self):
        with pytest.raises(CorpusError):
            Vocab(["a", "a"])

    @pytest.mark.parametrize("word", ["", "a b", "a\nb", "A", PAD_WORD],
                             ids=["empty", "space", "newline", "upper", "pad"])
    def test_words_normalize_words_cannot_give_are_refused(self, word):
        # Each would split into other words, or none, when a file holding it is read back.
        # A one-word vocabulary is checked too.
        assert normalize_words(word) != [word]
        for words in ([word], ["cat", word, "dog"]):
            with pytest.raises(CorpusError, match=re.escape(repr(word))):
                Vocab(words)


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


class TestFragmentText:
    @pytest.mark.parametrize("max_len", [1, 3, 7, 256], ids=lambda n: f"len{n}")
    @pytest.mark.parametrize("k_frag", [2, 3, 5, 8], ids=lambda k: f"k{k}")
    def test_written_text_matches_the_word_by_word_reference(self, tmp_path, zipf_corpora, k_frag,
                                                             max_len):
        path = tmp_path / "fragments.txt"
        for sents in zipf_corpora:
            sents = [sent[:max_len] for sent in EDGE_SENTENCES + sents + EDGE_SENTENCES]
            vocab = build_vocab(sents)
            fragments, text = fragments_file(sents, vocab, k_frag)
            ts = enumerate_fragments(sents, vocab, k_frag=k_frag)
            assert ts.fragments == fragments
            write_fragments(path, ts, vocab)
            assert path.read_bytes() == text.encode("utf-8")


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
            write_fragments(base / "fragments.txt", ts, vocab)
            digests.append(
                tuple(
                    hashlib.sha256((base / name).read_bytes()).hexdigest()
                    for name in ("sentences.txt", "fragments.txt")
                )
            )
        assert digests[0] == digests[1]
        assert read_sentences(tmp_path / "one" / "sentences.txt") == sents

    @pytest.mark.parametrize("max_len", [1, 3, 256], ids=lambda n: f"len{n}")
    @pytest.mark.parametrize("k_frag", [2, 3, 5], ids=lambda k: f"k{k}")
    def test_fragment_words_in_first_seen_order_are_the_built_vocab(self, raw_texts, k_frag, max_len):
        # build_vocab numbers the words in the order train's fragments first use them.
        for raw in raw_texts:
            sents = split_sentences(strip_boilerplate(raw), max_len=max_len)
            vocab = build_vocab(sents)
            fragments = enumerate_fragments(sents, vocab, k_frag).fragments
            seen = dict.fromkeys(word for frag in fragments for word in vocab.decode(frag))
            assert (*(word for word in seen if word != EOS_WORD), EOS_WORD, PAD_WORD) == vocab.words

    @pytest.mark.parametrize(
        "text, line",
        [("the cat\nthe Zebra\n", 2), ("the cat\n\nthe <pad>", 3), ("the cat\r\nthe Zebra\r\n", 2),
         ("the cat\rthe <pad>", 2), ("the\x0bcat\x1cthe cat\nthe caf\u00e9\n", 2)],
        ids=["upper", "pad-after-a-blank-line", "crlf", "cr", "non-ascii"],
    )
    def test_stored_words_outside_the_alphabet_are_refused(self, tmp_path, text, line):
        # A hand-edited word that no query can normalize to would be stored half-usable.
        path = tmp_path / "sentences.txt"
        path.write_bytes(text.encode("utf-8"))
        word = text.split()[-1]
        with pytest.raises(CorpusError, match=re.escape(f"{path}:{line}: word {word!r}")):
            read_sentences(path)

    def test_stored_words_may_be_split_by_any_whitespace(self, tmp_path):
        # Only a word is checked: str.split separates words at what normalize_words splits at.
        path = tmp_path / "sentences.txt"
        path.write_bytes("the\tcat\u00a0sits\r\n\n  a dog\x0bruns \x1c\n".encode("utf-8"))
        assert read_sentences(path) == [["the", "cat", "sits"], ["a", "dog", "runs"]]

    def test_vocab_must_end_with_specials(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("a\nb\n")
        with pytest.raises(CorpusError, match="must end with <eos> and <pad> lines"):
            read_vocab(path)

"""Exit codes, settings, query normalization and manifests of the command-line front end."""

import argparse
import dataclasses
import hashlib
import inspect
import io
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import arrowlm
from arrowlm import cli, corpus, inference, model, retrieval
from arrowlm.formula import Atom, parse_formula, print_formula
from arrowlm.model import TrainConfig
from arrowlm.prover import format_term, prove_with_term

from conftest import TOY_RAW
from oracles import alpha_eq, nbe_normal_form, random_formula


def manifest_keys(path):
    return {line.partition("=")[0] for line in path.read_text(encoding="utf-8").splitlines()}


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """Toy corpus artifacts and a small checkpoint, built through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    raw = root / "raw.txt"
    raw.write_text(f"*** START OF TOY ***\n{TOY_RAW}\n*** END OF TOY ***\n", encoding="utf-8")
    corpus_dir, ckpt = root / "corpus", root / "model.arrw"
    assert cli.main(["corpus", "build", "--input", str(raw), "--out", str(corpus_dir)]) == 0
    train = ["train", "--corpus", str(corpus_dir), "--out", str(ckpt)]
    assert cli.main(train + ["--d", "8", "--r", "2", "--epochs", "2", "--seed", "3"]) == 0
    return corpus_dir, ckpt


def query(built, *args):
    corpus_dir, ckpt = built
    model = [] if "--symbolic" in args else ["--model", str(ckpt)]  # a symbolic query refuses one
    return cli.main(["query", "--corpus", str(corpus_dir), *model, *args])


class TestProve:
    def test_exit_codes(self, capsys):
        assert cli.main(["prove", "p->p"]) == 0
        assert cli.main(["prove", "((p->q)->p)->p"]) == 1
        assert cli.main(["prove", "p->"]) == 2
        assert capsys.readouterr().out.splitlines() == ["provable", "not provable"]

    def test_term(self, capsys):
        assert cli.main(["prove", "--term", "p->(p->q)->q"]) == 0
        assert capsys.readouterr().out.splitlines() == ["provable", "term: \\x1.\\x2.x2 x1"]

    def test_normal_form_is_the_witness(self, capsys):
        # Witnesses are beta-normal: the independent normalizer returns each one unchanged.
        rng = random.Random(8)
        atoms = [Atom(w) for w in "pqr"]
        witnessed = 0
        for _ in range(200):
            text = print_formula(random_formula(rng, atoms, 5))
            term = prove_with_term(parse_formula(text))
            capsys.readouterr()
            status = cli.main(["prove", "--term", text])
            out = capsys.readouterr().out.splitlines()
            if term is None:
                assert status == 1 and out == ["not provable"], text
            else:
                witnessed += 1
                assert alpha_eq(nbe_normal_form(term), term), text
                assert out == ["provable", f"term: {format_term(term)}"], text
        assert witnessed > 30

    def test_right_nested_chain_of_any_length(self, capsys):
        # An implication goal is a loop in the prover, the witness and the printer, and an
        # arrow chain one in the parser.
        chain = "->".join(f"a{i}" for i in range(2_000)) + "->a0"
        assert cli.main(["prove", chain]) == 0
        assert capsys.readouterr() == ("provable\n", "")
        assert cli.main(["prove", "--term", chain]) == 0
        spine = "".join(f"\\x{i}." for i in range(1, 2_001))
        assert capsys.readouterr() == (f"provable\nterm: {spine}x1\n", "")
        assert cli.main(["prove", "--term", "->".join(["a"] * 2_000)]) == 0
        spine = "".join(f"\\x{i}." for i in range(1, 2_000))
        assert capsys.readouterr() == (f"provable\nterm: {spine}x1\n", "")

    def test_crash_is_exit_3(self, monkeypatch, capsys):
        def crash(goal):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "prove", crash)
        assert cli.main(["prove", "p->p"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["internal error: RecursionError: maximum recursion depth exceeded"]


class TestQuery:
    def test_exit_codes(self, built, capsys):
        assert query(built, "the cat") == 0
        assert query(built, "the mouse sits") == 1
        assert query(built, "--symbolic", "cat ?x") == 0
        assert query(built, "--symbolic", "mouse chases") == 1
        assert query(built) == 2
        corpus_dir, _ = built
        assert cli.main(["query", "--corpus", str(corpus_dir), "the cat"]) == 2

    def test_text_query_uses_the_corpus_normalizer(self, built, capsys):
        capsys.readouterr()
        assert query(built, "the cat sits") == 0
        plain = capsys.readouterr().out
        assert query(built, "The CAT, sits!") == 0
        assert capsys.readouterr().out == plain
        assert "on the mat" in plain

    def test_symbolic_query_uses_the_corpus_normalizer(self, built, capsys):
        capsys.readouterr()
        assert query(built, "--symbolic", "cat ?x") == 0
        plain = capsys.readouterr().out
        for text in ("Cat, ?x", "Cat, ?X."):  # a wildcard's name is normalized too
            assert query(built, "--symbolic", text) == 0
            assert capsys.readouterr().out == plain, text
        assert "x=sits" in plain

    def test_repeated_wildcard_is_printed_once(self, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        raw.write_text("The cat sat on the mat. The dog sat on the log. A cat cat ran.", encoding="utf-8")
        corpus_dir = tmp_path / "corpus"
        assert cli.main(["corpus", "build", "--input", str(raw), "--out", str(corpus_dir)]) == 0
        capsys.readouterr()
        symbolic = ["query", "--corpus", str(corpus_dir), "--symbolic"]
        assert cli.main(symbolic + ["?x ?x"]) == 0
        assert capsys.readouterr().out == "x=cat: a cat cat ran\n\n"
        assert cli.main(symbolic + ["?y ?x ?x"]) == 0  # names in order of first appearance
        assert capsys.readouterr().out == "y=a, x=cat: a cat cat ran\n\n"

    def test_repl_prints_the_library_results(self, tmp_path, monkeypatch, capsys):
        # One --repl session in each mode, against every block written out from the
        # library's own results in the format the module docstring gives.
        raw = tmp_path / "raw.txt"
        raw.write_text(TOY_RAW + " A cat cat ran.", encoding="utf-8")
        corpus_dir, ckpt = tmp_path / "corpus", tmp_path / "m"
        assert cli.main(["corpus", "build", "--input", str(raw), "--out", str(corpus_dir)]) == 0
        assert cli.main(["train", "--corpus", str(corpus_dir), "--out", str(ckpt), "--d", "8",
                         "--r", "2", "--epochs", "2", "--seed", "3"]) == 0
        session = ["the cat", "the cat sits on the mat", "mat cat", "zebra", "...", "?y ?x ?x",
                   "_ cat"]
        params, vocab = model.load_checkpoint(ckpt)
        db = retrieval.build_db(corpus.read_sentences(corpus_dir / "sentences.txt"))
        texts, patterns = [], []  # each query's lines, in each mode
        for line in session:
            words = corpus.normalize_words(line)
            result = inference.retrieval_first(params, vocab, db, words) if words else None
            block = [f"{i}. {' '.join(cand.continuation)}  (mean {cand.mean_logprob:.4f}, "
                     f"total {cand.total_logprob:.4f})"
                     for i, cand in enumerate(result.ranked if result else (), 1)]
            block += [f"exact: sentence {cand.sentence_id}"
                      for cand in (result.exact_matches if result else ())]
            if words and not result:
                prompt = [vocab.index[w] for w in words if w in vocab.index]
                ids = inference.generate_free(params, vocab, prompt) if prompt else []
                block.append(" ".join(["[free]", *vocab.decode(ids)]))
            texts.append(block)
            items = db.parse_pattern(line)
            block = []
            for bindings, _, sentence in retrieval.query_pattern(db, items) if items else ():
                bound = ", ".join(f"{name}={word}" for name, word in bindings.items())
                block.append(f"{bound}: {' '.join(sentence)}" if bound else " ".join(sentence))
            patterns.append(block)
        # The session covers each kind of block.
        assert texts[0][0].startswith("1. ") and texts[1] == ["exact: sentence 0"]
        assert texts[2][0].startswith("[free] ") and texts[6][0].startswith("[free] ")
        assert texts[3:6] == [["[free]"], [], ["[free]"]]
        assert patterns[5] == ["y=a, x=cat: a cat cat ran"] and "a cat cat ran" in patterns[6]
        for mode, blocks in ((["--model", str(ckpt)], texts), (["--symbolic"], patterns)):
            monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(session) + "\n"))
            capsys.readouterr()
            assert cli.main(["query", "--corpus", str(corpus_dir), *mode, "--repl"]) == 1
            expected = "".join(f"{line}\n" for block in blocks for line in [*block, ""])
            assert capsys.readouterr().out == expected, mode

    def test_long_query_on_a_short_fragment_corpus(self, built, tmp_path, capsys):
        # A model trained on windows of at most 2 words still answers from whole sentences.
        corpus_dir, _ = built
        ckpt = tmp_path / "short"
        assert cli.main(["train", "--corpus", str(corpus_dir), "--out", str(ckpt), "--max-frag", "2",
                         "--d", "8", "--r", "2", "--epochs", "2"]) == 0
        capsys.readouterr()
        args = ["query", "--corpus", str(corpus_dir), "--model", str(ckpt)]
        assert cli.main(args + ["the cat sits on the mat"]) == 0  # 6 words, an exact hit
        assert capsys.readouterr().out == "exact: sentence 0\n\n"
        assert cli.main(args + ["the cat sits on the"]) == 0
        assert capsys.readouterr().out.startswith("1. mat  (mean ")
        symbolic = ["query", "--corpus", str(corpus_dir), "--symbolic", "the cat sits on the mat"]
        assert cli.main(symbolic) == 0
        assert capsys.readouterr().out == "the cat sits on the mat\n\n"

    def test_max_frag_is_not_a_query_flag(self, built, tmp_path):
        # Nor a corpus flag: train alone cuts the windows, from the sentences corpus build cut.
        corpus_dir, ckpt = built
        raw = ["--input", str(corpus_dir.parent / "raw.txt"), "--out", str(tmp_path / "c")]
        train = ["train", "--corpus", str(corpus_dir), "--out", str(tmp_path / "m")]
        for argv in (["query", "--corpus", str(corpus_dir), "--model", str(ckpt), "--max-frag", "3",
                      "the cat"], ["corpus", "build", *raw, "--max-frag", "3"], train + ["--max-len", "5"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
        # A config file may still set it: train reads it, corpus build and query ignore it.
        config = tmp_path / "frag.cfg"
        config.write_text("max_frag=3\n", encoding="utf-8")
        assert cli.main(["--config", str(config), "corpus", "build", *raw]) == 0
        corpus_lines = (tmp_path / "c" / "corpus.manifest").read_text(encoding="utf-8").splitlines()
        assert not any(line.startswith("max_frag=") for line in corpus_lines)
        assert cli.main(["--config", str(config), *train, "--d", "4", "--r", "1", "--epochs", "1"]) == 0
        train_lines = (tmp_path / "m.manifest").read_text(encoding="utf-8").splitlines()
        sentences = corpus.read_sentences(corpus_dir / "sentences.txt")
        windows = corpus.enumerate_fragments(sentences, corpus.build_vocab(sentences), k_frag=3)
        assert {"max_frag=3", f"fragments={len(windows.fragments)}"} <= set(train_lines)
        assert cli.main(["--config", str(config), "query", "--corpus", str(corpus_dir),
                         "--model", str(ckpt), "the cat"]) == 0

    def test_overflowing_model_is_a_usage_error(self, built, tmp_path, capsys):
        # Finite parameters near 1e30 overflow the float32 logits to inf and NaN.
        # train refuses to write such a checkpoint, so this one is scaled by hand.
        corpus_dir, trained = built
        params, vocab = model.load_checkpoint(trained)
        for _, arr in params.tensors():
            arr *= 1e30
        ckpt = tmp_path / "m.arrw"
        model.save_checkpoint(params, vocab, ckpt)
        for text in ("the cat", "mat cat"):  # a ranked continuation; free generation
            capsys.readouterr()
            assert query((corpus_dir, ckpt), text) == 2
            out, err = capsys.readouterr()
            assert out == "" and len(err.splitlines()) == 1, text
            assert err.startswith("cannot use model: "), err

    @pytest.mark.parametrize(
        "args, stdin, message",
        [
            (["--symbolic", "--model", "/nonexistent/model.ckpt", "cat ?x"], "",
             "exactly one of --model and --symbolic"),
            (["--model", "/nonexistent/model.ckpt", "the cat"], "", "cannot load model/corpus"),
            (["--model", "{model}", "--repl", "the cat"], "the dog\n",
             "exactly one of QUERY and --repl"),
            (["--model", "/nonexistent/model.ckpt"], "", "exactly one of QUERY and --repl"),
        ],
        ids=["symbolic-with-model", "bad-model-is-read", "query-with-repl", "no-query"],
    )
    def test_usage_errors_come_before_any_read(self, built, monkeypatch, capsys, args, stdin,
                                               message):
        corpus_dir, ckpt = built
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        capsys.readouterr()
        argv = ["query", "--corpus", str(corpus_dir), *(a.format(model=ckpt) for a in args)]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and message in err, err

    @pytest.mark.parametrize("edit", ["word-prepended", "deleted"])
    def test_vocab_file_is_not_read(self, built, tmp_path, capsys, edit):
        # corpus build writes no vocab.txt, and a stray one changes nothing: train takes the
        # words from sentences.txt, a model query from the checkpoint, and a symbolic one needs none.
        corpus_dir, ckpt = built
        assert sorted(path.name for path in corpus_dir.iterdir()) == ["corpus.manifest", "sentences.txt"]
        shutil.copytree(corpus_dir, tmp_path / "c")
        words = model.load_checkpoint(ckpt)[1].text()
        stray = {"word-prepended": "zebra\n" + words,  # a word the model lacks
                 "deleted": "<eos>\n<pad>\n"}[edit]  # every word of the corpus gone
        (tmp_path / "c" / "vocab.txt").write_text(stray, encoding="utf-8")
        for mode in (["--model", str(ckpt), "the cat"], ["--symbolic", "cat ?x"]):
            outs = []
            for directory in (corpus_dir, tmp_path / "c"):
                capsys.readouterr()
                assert cli.main(["query", "--corpus", str(directory), *mode]) == 0
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1] and outs[0].strip(), mode
        small = ["--d", "4", "--r", "1", "--epochs", "1"]
        for directory, out in ((corpus_dir, "m1"), (tmp_path / "c", "m2")):
            assert cli.main(["train", "--corpus", str(directory), "--out", str(tmp_path / out),
                             *small]) == 0
        assert (tmp_path / "m1").read_bytes() == (tmp_path / "m2").read_bytes()

    def test_zero_new_tokens_print_an_empty_free_line(self, built, capsys):
        # "zebra" is out of vocabulary, so the query falls back to free generation of no token.
        capsys.readouterr()
        assert query(built, "--max-new-tokens", "0", "zebra cat") == 1
        assert capsys.readouterr().out == "[free]\n\n"

    def test_tiny_sampling_temperature_is_not_a_crash(self, built):
        # "zebra" is out of vocabulary, so the query falls back to free generation.
        assert query(built, "--sample", "--temperature", "1e-320", "zebra cat") in (0, 1)

    @pytest.mark.parametrize(
        "lines, status",
        [("cat ?x\nmouse chases\ncat ?x\n", 1), ("cat ?x\n\ndog ?x\n", 0)],
    )
    def test_repl_fails_if_any_query_found_nothing(self, built, monkeypatch, lines, status):
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        assert query(built, "--repl", "--symbolic") == status


@pytest.mark.parametrize(
    "lr, epochs, cause",
    [("1e38", "3", "step 2: loss nan"), ("1e30", "1", "activations can reach")],
    ids=["non-finite-step", "overflowing-parameters"],
)
def test_diverging_training_is_a_usage_error(built, tmp_path, capsys, lr, epochs, cause):
    corpus_dir, _ = built
    args = ["train", "--corpus", str(corpus_dir), "--out", str(tmp_path / "m.arrw"), "--lr", lr,
            "--warmup", "0", "--epochs", epochs, "--batch-size", "256", "--d", "8", "--r", "2"]
    capsys.readouterr()
    assert cli.main(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith(f"training diverged: {cause}"), err
    assert list(tmp_path.iterdir()) == []  # no checkpoint, loss file or manifest


def test_config_key_must_name_a_setting(built, tmp_path, capsys):
    corpus_dir, _ = built
    config = tmp_path / "typo.cfg"
    config.write_text("epoch=3\n", encoding="utf-8")
    capsys.readouterr()
    args = ["--config", str(config), "train", "--corpus", str(corpus_dir), "--out", str(tmp_path / "m")]
    assert cli.main(args) == 2
    assert capsys.readouterr() == ("", "bad setting: config key 'epoch' is not a setting\n")
    assert not (tmp_path / "m").exists()


def test_corpus_without_sentences_leaves_no_out_dir(tmp_path, capsys):
    raw = tmp_path / "dots.txt"
    raw.write_text("...", encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["corpus", "build", "--input", str(raw), "--out", str(tmp_path / "D")]) == 2
    assert capsys.readouterr() == ("", "no sentences found in input\n")
    assert not (tmp_path / "D").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["corpus", "build", "--input", "{raw}", "--out", "{tmp}/file"],
        ["corpus", "build", "--input", "{tmp}/latin1.txt", "--out", "{tmp}/c"],
        ["corpus", "build", "--input", "{raw}", "--out", "{tmp}/o"],
        ["train", "--corpus", "{corpus}", "--out", "{tmp}/missing/m"],
        ["train", "--corpus", "{corpus}", "--out", "{tmp}"],
        ["train", "--corpus", "{corpus}", "--out", "{tmp}/l"],
        ["train", "--corpus", "{corpus}", "--out", "{tmp}/n"],
        ["train", "--corpus", "{corpus}", "--out", "{tmp}/m/"],
        ["train", "--corpus", "{corpus}", "--out", "{tmp}/l/"],
        ["train", "--corpus", "{corpus}", "--out", "{tmp}/l/."],
        ["train", "--corpus", "{tmp}/latin1", "--out", "{tmp}/m"],
        ["train", "--corpus", "{tmp}/empty", "--out", "{tmp}/m"],
        ["train", "--corpus", "{tmp}/no-sentences", "--out", "{tmp}/m"],
        ["query", "--corpus", "{tmp}/latin1", "--model", "{model}", "the cat"],
    ],
    ids=["corpus-out-is-a-file", "corpus-input-not-utf8", "corpus-manifest-is-a-dir",
         "train-out-dir-missing", "train-out-is-a-dir", "train-loss-is-a-dir",
         "train-manifest-is-a-dir", "train-out-ends-in-separator",
         "train-loss-is-a-dir-out-ends-in-separator", "train-out-ends-in-dot",
         "train-sentences-not-utf8", "train-sentences-empty", "train-sentences-missing",
         "query-sentences-not-utf8"],
)
def test_io_errors_are_usage_errors(built, tmp_path, monkeypatch, capsys, args):
    corpus_dir, ckpt = built

    def unreachable(*args, **kwargs):
        raise AssertionError("a run that fails reached the work of corpus build or train")

    monkeypatch.setattr(model, "train", unreachable)
    monkeypatch.setattr(corpus, "split_sentences", unreachable)
    (tmp_path / "file").write_text("kept\n", encoding="utf-8")
    (tmp_path / "latin1.txt").write_bytes("The caf\u00e9 is open.".encode("latin-1"))
    (tmp_path / "o" / "corpus.manifest").mkdir(parents=True)  # in the way of the second output
    for name in ("l.loss", "n.manifest"):  # train writes these beside --out
        (tmp_path / name).mkdir()
    stored = (corpus_dir / "sentences.txt").read_bytes()
    for name, text in {"latin1": stored + "caf\u00e9\n".encode("latin-1"), "empty": b""}.items():
        (tmp_path / name).mkdir()
        (tmp_path / name / "sentences.txt").write_bytes(text)
    (tmp_path / "no-sentences").mkdir()
    before = sorted(tmp_path.rglob("*"))
    paths = dict(raw=corpus_dir.parent / "raw.txt", corpus=corpus_dir, model=ckpt, tmp=tmp_path)
    capsys.readouterr()
    small = ["--d", "4", "--r", "1", "--epochs", "1"] if args[0] == "train" else []
    assert cli.main([arg.format(**paths) for arg in args] + small) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("cannot "), err
    assert sorted(tmp_path.rglob("*")) == before  # no --out, checkpoint or manifest
    assert (tmp_path / "file").read_text(encoding="utf-8") == "kept\n"


def fail_to_write(*args, **kwargs):
    raise OSError(28, "No space left on device")


def files_and_bytes(root):
    return {path: path.is_file() and path.read_bytes() for path in root.rglob("*")}


@pytest.mark.parametrize(
    "args, message",
    [
        (["prove", "p->"], "syntax error: expected atom or '(' (byte 3)"),
        (["train", "--corpus", "{corpus}", "--out", "{tmp}/m", "--d", "2", "--r", "4"],
         "invalid shape: d=2, r=4"),
        (["query", "--corpus", "{tmp}/c", "--model", "{model}", "cat"],  # "cat runs" is stored
         "stored word 'runs' is not in the checkpoint's vocabulary"),
        (["--config", "{tmp}/missing.cfg", "prove", "p->p"],
         "bad config file: [Errno 2] No such file or directory: "),
        (["--config", "{tmp}/no-equals.cfg", "prove", "p->p"],
         "bad config file: bad config line (expected key=value): 'epochs 3'"),
        (["query", "--corpus", "{corpus}", "--symbolic", "--repl"],
         "cannot read query: 'utf-8' codec can't decode byte 0xff"),
        (["train", "--corpus", "{tmp}/z", "--out", "{tmp}/m"],
         "cannot load corpus: {tmp}/z/sentences.txt:5: word 'Zebra' is not one"),
        (["query", "--corpus", "{tmp}/z", "--model", "{model}", "zebra"],
         "cannot load model/corpus: {tmp}/z/sentences.txt:5: word 'Zebra' is not one"),
        (["query", "--corpus", "{tmp}/z", "--symbolic", "?x runs"],
         "cannot load model/corpus: {tmp}/z/sentences.txt:5: word 'Zebra' is not one"),
    ],
    ids=["syntax-error", "invalid-shape", "stored-word-missing", "config-missing",
         "config-line-without-equals", "stdin-not-utf8", "stored-word-outside-the-alphabet-train",
         "stored-word-outside-the-alphabet-query", "stored-word-outside-the-alphabet-symbolic"],
)
def test_refusal_is_one_line_and_writes_nothing(built, tmp_path, monkeypatch, capsys, args,
                                                message):
    corpus_dir, ckpt = built
    shutil.copytree(corpus_dir, tmp_path / "c")
    with open(tmp_path / "c" / "sentences.txt", "a", encoding="utf-8") as fh:
        fh.write("zebra cat runs\n")  # two words the model lacks
    shutil.copytree(corpus_dir, tmp_path / "z")
    with open(tmp_path / "z" / "sentences.txt", "a", encoding="utf-8") as fh:
        fh.write("Zebra runs\n")  # a word no query normalizes to
    (tmp_path / "no-equals.cfg").write_text("epochs 3\n", encoding="utf-8")
    stdin = io.TextIOWrapper(io.BytesIO(b"the \xff cat\n"), encoding="utf-8")  # strict decoding
    monkeypatch.setattr("sys.stdin", stdin)
    before = files_and_bytes(tmp_path)
    capsys.readouterr()
    assert cli.main([arg.format(corpus=corpus_dir, model=ckpt, tmp=tmp_path) for arg in args]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith(message.format(tmp=tmp_path)), err
    assert files_and_bytes(tmp_path) == before


@pytest.mark.parametrize("out, fault", [("c", "write"), ("c", "manifest-is-a-dir"),
                                        ("new/c", "write")],
                         ids=["rebuild-write-fails", "rebuild-manifest-is-a-dir",
                              "new-out-write-fails"])
def test_failed_corpus_build_publishes_nothing(built, tmp_path, monkeypatch, capsys, out, fault):
    # An earlier corpus stays whole, byte for byte, and no stage or new directory is left.
    corpus_dir, _ = built
    shutil.copytree(corpus_dir, tmp_path / "c")
    if fault == "write":
        monkeypatch.setattr(corpus, "write_sentences", fail_to_write)
    else:
        (tmp_path / "c" / "corpus.manifest").unlink()
        (tmp_path / "c" / "corpus.manifest").mkdir()
    raw = tmp_path / "other.txt"
    raw.write_text("A dog runs. A bird sings.", encoding="utf-8")
    before = files_and_bytes(tmp_path)
    capsys.readouterr()
    assert cli.main(["corpus", "build", "--input", str(raw), "--out", str(tmp_path / out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and len(err.splitlines()) == 1 and err.startswith("cannot write output: ")
    assert files_and_bytes(tmp_path) == before


def test_failed_train_write_keeps_the_earlier_model(built, tmp_path, monkeypatch, capsys):
    corpus_dir, ckpt = built
    for suffix in ("", ".loss", ".manifest"):
        (tmp_path / f"m{suffix}").write_bytes(Path(f"{ckpt}{suffix}").read_bytes())
    before = files_and_bytes(tmp_path)

    def fail_once_staged(manifest):
        (stage,) = tmp_path.glob(".arrowlm-*")
        assert sorted(path.name for path in stage.iterdir()) == ["m", "m.loss"]
        fail_to_write()

    monkeypatch.setattr(cli.Manifest, "finalize", fail_once_staged)
    capsys.readouterr()
    args = ["train", "--corpus", str(corpus_dir), "--out", str(tmp_path / "m")]
    assert cli.main(args + ["--d", "4", "--r", "1", "--epochs", "1"]) == 2
    assert capsys.readouterr() == ("", "cannot write checkpoint: [Errno 28] No space left on device\n")
    assert files_and_bytes(tmp_path) == before


def test_plain_text_corpus_prints_no_warning(built, tmp_path):
    # Text without start/end markers is a normal input: the manifest records it, stderr stays clean.
    raw = tmp_path / "plain.txt"
    raw.write_text(TOY_RAW, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(arrowlm.__file__).parents[1]))
    script = "import sys; from arrowlm import cli; sys.exit(cli.main(sys.argv[1:]))"
    argv = ["corpus", "build", "--input", str(raw), "--out", str(tmp_path / "c")]
    run = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True,
                         text=True, timeout=60)
    assert run.returncode == 0 and "Warning" not in run.stderr, run.stderr
    lines = (tmp_path / "c" / "corpus.manifest").read_text(encoding="utf-8").splitlines()
    assert "boilerplate_markers=absent" in lines
    corpus_dir, _ = built
    assert "boilerplate_markers=present" in (corpus_dir / "corpus.manifest").read_text(
        encoding="utf-8").splitlines()


@pytest.mark.parametrize(
    "args",
    [
        ["train", "--corpus", "{corpus}", "--out", "{tmp}/m", "--max-frag", "1"],
        ["train", "--corpus", "{corpus}", "--out", "{tmp}/m", "--batch-size", "0"],
        ["--config", "{tmp}/bad.cfg", "train", "--corpus", "{corpus}", "--out", "{tmp}/m"],
        ["query", "--corpus", "{corpus}", "--model", "{model}", "--top-k", "0", "the cat"],
        ["query", "--corpus", "{corpus}", "--model", "{model}", "--temperature", "0", "the"],
        # An int past the float range, from the command line and from a config file.
        ["query", "--symbolic", "--corpus", "{corpus}", "--top-k", "1" + "0" * 400, "cat"],
        ["--config", "{tmp}/huge.cfg", "query", "--symbolic", "--corpus", "{corpus}", "cat"],
    ],
    ids=["train-max-frag", "train-batch-size", "config-d", "query-top-k", "query-temperature",
         "query-top-k-past-float", "config-top-k-past-float"],
)
def test_out_of_range_setting_is_a_usage_error(built, tmp_path, capsys, args):
    corpus_dir, ckpt = built
    (tmp_path / "bad.cfg").write_text("d=abc\n", encoding="utf-8")
    (tmp_path / "huge.cfg").write_text("top_k=1" + "0" * 400 + "\n", encoding="utf-8")
    paths = dict(raw=corpus_dir.parent / "raw.txt", corpus=corpus_dir, model=ckpt, tmp=tmp_path)
    capsys.readouterr()
    assert cli.main([arg.format(**paths) for arg in args]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("bad setting: ")


_LOADED_AFTER = """
import sys
from arrowlm import cli
for argv in {runs!r}:
    cli.main(argv)
print(sorted(m for m in {modules!r} if m in sys.modules))
"""


def test_import_leaves_numpy_unloaded(built):
    # A cold start pays for every module it loads, so a command loads only what it runs.
    env = dict(os.environ, PYTHONPATH=str(Path(arrowlm.__file__).parents[1]))

    def loaded_after(runs, modules, *flags):
        script = _LOADED_AFTER.format(runs=runs, modules=modules)
        out = subprocess.run([sys.executable, *flags, "-c", script], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        return out.stdout.splitlines()[-1]

    prove_runs = [["prove", "--term", "((p->q)->p)->p"], ["prove", "--term", "p->(p->q)->q"]]
    assert loaded_after(prove_runs, ["numpy", "dataclasses", "inspect", "hashlib", "resource"]) == "[]"
    corpus_dir, _ = built
    query_runs = [["query", "--symbolic", "--corpus", str(corpus_dir), "cat ?x"]]
    assert loaded_after(query_runs, ["numpy"]) == "[]"
    # Without site, whose .pth hooks may load tempfile first.  (argparse itself loads
    # shutil: its help formatter asks it for the terminal width on every add_argument.)
    assert loaded_after(prove_runs + query_runs, ["tempfile"], "-S") == "[]"


class Fields(dict):
    """A dataclass's field defaults by name, remembering which names were read."""

    def __init__(self, cls):
        super().__init__((f.name, f.default) for f in dataclasses.fields(cls))
        self.read: set[str] = set()

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)


def test_library_defaults_read_the_one_table():
    train, decode = Fields(TrainConfig), Fields(inference.DecodeConfig)

    def arg(fn, name):
        return inspect.signature(fn).parameters[name].default

    library = {
        "max_len": [arg(corpus.split_sentences, "max_len"), train["max_len"]],
        "max_frag": [arg(corpus.enumerate_fragments, "k_frag"), train["k_frag"]],
        "d": [train["d"]],
        "r": [train["r"]],
        "epochs": [train["epochs"]],
        "seed": [train["seed"], decode["seed"]],
        "batch_size": [train["batch_size"]],
        "lr": [train["lr"]],
        "warmup": [train["warmup_steps"]],
        "weight_decay": [train["weight_decay"]],
        "clip_norm": [train["clip_norm"]],
        "top_k": [arg(inference.retrieval_first, "k")],
        "max_new_tokens": [decode["max_new_tokens"]],
        "temperature": [decode["temperature"]],
    }
    assert cli.DEFAULTS is arrowlm.DEFAULTS and library.keys() == arrowlm.DEFAULTS.keys()
    for key, values in library.items():
        assert values == [arrowlm.DEFAULTS[key]] * len(values), key
    # A config field that no command-line setting reaches has no use; max_len is read by
    # nothing in arrowlm and stays only because bench/workloads.py passes it.
    assert train.read == train.keys() and decode.read == decode.keys() - {"mode"}


def test_manifests_record_settings_and_digests(built, tmp_path, monkeypatch, capsys):
    corpus_dir, ckpt = built
    made = manifest_keys(corpus_dir / "corpus.manifest")
    assert {
        "version", "command", "input", "sha256_input", "max_len", "sentences", "sha256_sentences",
        "seconds_split", "peak_rss_bytes",
    } <= made
    train = manifest_keys(ckpt.parent / f"{ckpt.name}.manifest")
    assert {
        "version", "command", "max_frag", "d", "r", "lr", "warmup", "epochs", "batch_size", "seed",
        "weight_decay", "clip_norm", "sha256_sentences", "vocab_size", "fragments",
        "final_loss", "sha256_checkpoint", "seconds_train", "peak_rss_bytes",
    } <= train
    # sentences.txt is train's one input; no manifest digests a vocab.txt or a fragments.txt.
    assert not (train | made) & {"sha256_vocab", "sha256_vocab.txt", "sha256_fragments"}
    assert not train & {"warmup_steps", "k_frag"}  # only names that --config accepts
    # corpus build records how it cut the sentences, and train how it cut the windows.
    assert not train & {"max_len"} and not made & {"max_frag", "vocab_size", "fragments"}
    # Train and model queries say which numerics produced them; a symbolic query runs none.
    numerics = {"numpy": np.__version__, "OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "unset",
                "MKL_NUM_THREADS": "1"}
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "1")
    assert cli.main(["train", "--corpus", str(corpus_dir), "--out", str(tmp_path / "m"),
                     "--d", "4", "--r", "1", "--epochs", "1"]) == 0
    lines = (tmp_path / "m.manifest").read_text(encoding="utf-8").splitlines()
    entries = dict(line.partition("=")[::2] for line in lines)
    assert {key: entries.get(key) for key in numerics} == numerics
    for mode in (["--model", str(ckpt)], ["--symbolic"]):
        capsys.readouterr()
        assert cli.main(["query", "--corpus", str(corpus_dir), *mode, "the cat"]) == 0
        entries = dict(line.partition("=")[::2] for line in capsys.readouterr().err.splitlines())
        read = numerics if mode[0] == "--model" else dict.fromkeys(numerics)
        assert {key: entries.get(key) for key in numerics} == read, mode


@pytest.mark.parametrize("platform, unit", [("linux", 1024), ("darwin", 1)])
def test_peak_rss_is_recorded_in_bytes(monkeypatch, platform, unit):
    # getrusage reports ru_maxrss in KiB on Linux and in bytes on macOS.
    import resource

    monkeypatch.setattr(sys, "platform", platform)
    monkeypatch.setattr(resource, "getrusage", lambda who: argparse.Namespace(ru_maxrss=5000))
    args = argparse.Namespace(command="query", **{k: 1 for k in cli._SETTINGS["query"]})
    assert cli.Manifest(args).finalize().splitlines()[-1] == f"peak_rss_bytes={5000 * unit}"


def test_settings_table_drives_every_flag():
    # No default is unreachable from the command line, and no setting goes unchecked.
    assert set(cli._LOWEST) == arrowlm.DEFAULTS.keys() == set().union(*cli._SETTINGS.values())
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {name: [o for a in p._actions for o in a.option_strings] for name, p in sub.choices.items()}
    assert options == {
        "prove": ["-h", "--help", "--term"],
        "corpus": ["-h", "--help", "--input", "--out", "--max-len"],
        "train": ["-h", "--help", "--corpus", "--out", "--max-frag", "--d", "--r", "--epochs", "--seed",
                  "--batch-size", "--lr", "--warmup", "--weight-decay", "--clip-norm"],
        "query": ["-h", "--help", "--model", "--corpus", "--repl", "--symbolic", "--sample",
                  "--top-k", "--max-new-tokens", "--temperature", "--seed"],
    }
    floats = {"lr", "weight_decay", "clip_norm", "temperature"}
    for p in sub.choices.values():
        for a in p._actions:
            if a.dest in arrowlm.DEFAULTS:
                assert (a.type, a.default) == (float if a.dest in floats else int, None), a.dest
    with pytest.raises(SystemExit) as exc:
        cli.main(["prove", "--normalize", "p->p"])
    assert exc.value.code == 2


def test_manifest_settings_rerun_the_command(built, tmp_path):
    # A manifest's setting lines, given back as --config, reproduce every output byte.
    raw = built[0].parent / "raw.txt"

    def run(name, corpus_config=(), train_config=(), corpus_flags=(), train_flags=()):
        corpus_dir, ckpt = tmp_path / f"{name}-corpus", tmp_path / f"{name}.arrw"
        assert cli.main([*corpus_config, "corpus", "build", "--input", str(raw),
                         "--out", str(corpus_dir), *corpus_flags]) == 0
        assert cli.main([*train_config, "train", "--corpus", str(corpus_dir),
                         "--out", str(ckpt), *train_flags]) == 0
        digests = [hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in (corpus_dir / "sentences.txt", ckpt)]
        return digests, corpus_dir / "corpus.manifest", tmp_path / f"{ckpt.name}.manifest"

    def config(manifest):
        lines = manifest.read_text(encoding="utf-8").splitlines()
        path = manifest.with_suffix(".cfg")
        path.write_text("".join(f"{line}\n" for line in lines
                                if line.partition("=")[0] in arrowlm.DEFAULTS), encoding="utf-8")
        return ["--config", str(path)]

    first, corpus_manifest, train_manifest = run(
        "first", corpus_flags=["--max-len", "5"], train_flags=[  # 5 words cut two of the four sentences
            "--max-frag", "3", "--d", "6", "--r", "3", "--epochs", "3", "--seed", "5", "--lr", "0.01",
            "--warmup", "2"])
    again, _, _ = run("again", config(corpus_manifest), config(train_manifest))
    default, _, _ = run("default")
    assert again == first
    assert all(a != b for a, b in zip(first, default))


def test_manifest_digests_of_one_file_share_one_key(built, capsys):
    # A command's input digest sits under the key its producer's output digest does.
    corpus_dir, ckpt = built

    def entries(text):
        return dict(line.partition("=")[::2] for line in text.splitlines())

    made = entries((corpus_dir / "corpus.manifest").read_text(encoding="utf-8"))
    trained = entries(ckpt.with_name(f"{ckpt.name}.manifest").read_text(encoding="utf-8"))
    assert trained["sha256_sentences"] == made["sha256_sentences"]
    capsys.readouterr()
    assert cli.main(["query", "--corpus", str(corpus_dir), "--model", str(ckpt), "the cat"]) == 0
    queried = entries(capsys.readouterr().err)
    assert queried["sha256_sentences"] == made["sha256_sentences"]
    assert queried["sha256_checkpoint"] == trained["sha256_checkpoint"]


def test_query_manifest_digests_its_inputs(built, capsys):
    corpus_dir, ckpt = built

    def sha256(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def manifest(*args):
        capsys.readouterr()
        assert cli.main(["query", "--corpus", str(corpus_dir), *args, "the cat"]) == 0
        return dict(line.partition("=")[::2] for line in capsys.readouterr().err.splitlines())

    inputs = {"sha256_sentences": sha256(corpus_dir / "sentences.txt")}
    read = manifest("--model", str(ckpt), "--top-k", "1", "--sample", "--seed", "7")
    assert {k: read.get(k) for k in inputs} == inputs
    assert read["sha256_checkpoint"] == sha256(ckpt) and "sha256_vocab" not in read
    settings = ("command", "top_k", "max_new_tokens", "temperature", "seed", "sample", "symbolic")
    assert [read.get(k) for k in settings] == ["query", "1", "32", "1.0", "7", "True", "False"]
    symbolic = manifest("--symbolic")  # reads no model
    assert {k: symbolic.get(k) for k in inputs} == inputs and "sha256_checkpoint" not in symbolic
    assert (symbolic["sample"], symbolic["symbolic"]) == ("False", "True")


def test_train_cuts_the_corpus_sentences(built, tmp_path):
    # Keep the first sentence alone: train trains on exactly its windows of 2..max_frag words,
    # then the sentence with EOS, over its words in first-seen order, and reads no other file.
    corpus_dir, _ = built
    cut = tmp_path / "cut"
    cut.mkdir()
    first = (corpus_dir / "sentences.txt").read_text(encoding="utf-8").splitlines(keepends=True)[0]
    assert first == "the cat sits on the mat\n"
    (cut / "sentences.txt").write_text(first, encoding="utf-8")
    ckpt = tmp_path / "m.arrw"
    small = ["--max-frag", "3", "--d", "8", "--r", "2", "--epochs", "2", "--seed", "3"]
    assert cli.main(["train", "--corpus", str(cut), "--out", str(ckpt), *small]) == 0
    assert "fragments=10" in (tmp_path / "m.arrw.manifest").read_text(encoding="utf-8").splitlines()
    vocab = corpus.Vocab(["the", "cat", "sits", "on", "mat"])
    the, cat, sits, on, mat = range(5)
    fragments = [(the, cat), (the, cat, sits), (cat, sits), (cat, sits, on), (sits, on),
                 (sits, on, the), (on, the), (on, the, mat), (the, mat),
                 (the, cat, sits, on, the, mat, vocab.eos_id)]
    params = model.init_params(len(vocab), 8, 2, 3, dtype=np.float32)
    params, _ = model.train(params, fragments, TrainConfig(d=8, r=2, epochs=2, seed=3),
                            pad_id=vocab.pad_id)
    model.save_checkpoint(params, vocab, tmp_path / "ref.arrw")
    assert ckpt.read_bytes() == (tmp_path / "ref.arrw").read_bytes()


def test_train_publishes_the_checkpoint_its_losses_and_its_manifest(built, tmp_path):
    # The vocabulary rides inside the checkpoint, so no sidecar file sits beside it.
    args = ["train", "--corpus", str(built[0]), "--out", str(tmp_path / "m")]
    assert cli.main(args + ["--d", "4", "--r", "1", "--epochs", "1"]) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == ["m", "m.loss", "m.manifest"]


def test_loss_file_has_one_line_per_epoch(built):
    _, ckpt = built
    loss = ckpt.parent / f"{ckpt.name}.loss"
    lines = [line.split("\t") for line in loss.read_text(encoding="utf-8").splitlines()]
    assert [fields[0] for fields in lines] == ["1", "2"] and {len(fields) for fields in lines} == {2}
    manifest = ckpt.parent / f"{ckpt.name}.manifest"
    entries = dict(line.partition("=")[::2] for line in manifest.read_text(encoding="utf-8").splitlines())
    assert lines[-1][1] == entries["final_loss"]

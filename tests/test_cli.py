"""Exit codes, query normalization and manifests of the command-line front end."""

import io

import pytest

from arrowlm import cli

from conftest import TOY_RAW


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
    return cli.main(["query", "--corpus", str(corpus_dir), "--model", str(ckpt), *args])


class TestProve:
    def test_exit_codes(self, capsys):
        assert cli.main(["prove", "p->p"]) == 0
        assert cli.main(["prove", "((p->q)->p)->p"]) == 1
        assert cli.main(["prove", "p->"]) == 2
        assert capsys.readouterr().out.splitlines() == ["provable", "not provable"]

    def test_term(self, capsys):
        assert cli.main(["prove", "--term", "p->(p->q)->q"]) == 0
        assert capsys.readouterr().out.splitlines() == ["provable", "term: \\x1.\\x2.x2 x1"]

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

    @pytest.mark.parametrize(
        "lines, status",
        [("cat ?x\nmouse chases\ncat ?x\n", 1), ("cat ?x\n\ndog ?x\n", 0)],
    )
    def test_repl_fails_if_any_query_found_nothing(self, built, monkeypatch, lines, status):
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        assert query(built, "--repl", "--symbolic") == status


def test_manifests_record_settings_and_digests(built):
    corpus_dir, ckpt = built
    assert {
        "version", "command", "input", "sha256_input", "max_len", "max_frag",
        "sentences", "vocab_size", "fragments", "sha256_sentences.txt",
        "sha256_vocab.txt", "sha256_fragments.txt", "seconds_split", "peak_rss_bytes",
    } <= manifest_keys(corpus_dir / "corpus.manifest")
    assert {
        "version", "command", "d", "r", "lr", "warmup_steps", "epochs", "batch_size",
        "seed", "sha256_sentences", "sha256_vocab", "fragments", "final_loss",
        "sha256_checkpoint", "seconds_train", "peak_rss_bytes",
    } <= manifest_keys(ckpt.parent / f"{ckpt.name}.manifest")

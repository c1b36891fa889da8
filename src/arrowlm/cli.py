"""Command-line front end: prove, corpus build, train, query.

Exit codes: 0 success (provable / results found), 1 valid but negative
(not provable / no retrieval results; in ``--repl``, any query without
results), 2 usage or I/O errors, 3 internal error (an unexpected
exception, reported as one line on stderr).  Every
corpus/train run writes a ``key=value`` manifest with resolved settings,
input digests, per-phase timings, and peak RSS, enough to reproduce the
run; query runs print the same to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import resource
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .formula import FormulaSyntaxError, parse_formula
from .prover import beta_normalize, format_term, prove, prove_with_term

DEFAULTS = {
    "max_len": 256,
    "max_frag": 5,
    "d": 64,
    "r": 8,
    "epochs": 200,
    "seed": 42,
    "batch_size": 32,
    "lr": 3e-3,
    "warmup": 100,
    "weight_decay": 0.01,
    "clip_norm": 1.0,
    "top_k": 5,
    "max_new_tokens": 32,
    "temperature": 1.0,
}


class Manifest:
    """Ordered key=value run record with phase timings."""

    def __init__(self):
        self.entries: list[tuple[str, str]] = [("version", __version__)]
        self._phase_start: Optional[tuple[str, float]] = None

    def add(self, key: str, value) -> None:
        self.entries.append((key, str(value)))

    def digest(self, key: str, path) -> None:
        sha = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        self.add(f"sha256_{key}", sha)

    def start_phase(self, name: str) -> None:
        self.finish_phase()
        self._phase_start = (name, time.perf_counter())

    def finish_phase(self) -> None:
        if self._phase_start is not None:
            name, t0 = self._phase_start
            self.add(f"seconds_{name}", f"{time.perf_counter() - t0:.3f}")
            self._phase_start = None

    def finalize(self) -> None:
        self.finish_phase()
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.add("peak_rss_bytes", rss_kb * 1024)

    def text(self) -> str:
        return "".join(f"{k}={v}\n" for k, v in self.entries)

    def write(self, path) -> None:
        Path(path).write_text(self.text(), encoding="utf-8")


def _load_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (expected key=value): {line!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve(args: argparse.Namespace, key: str):
    """File config fills flags left at None; command line wins."""
    explicit = getattr(args, key, None)
    if explicit is not None:
        return explicit
    if getattr(args, "_file_config", None) and key in args._file_config:
        raw = args._file_config[key]
        default = DEFAULTS[key]
        return type(default)(raw) if not isinstance(default, bool) else raw == "true"
    return DEFAULTS[key]


def cmd_prove(args: argparse.Namespace) -> int:
    try:
        goal = parse_formula(args.formula)
    except FormulaSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    if args.term or args.normalize:
        term = prove_with_term(goal)
        provable = term is not None
    else:
        term = None
        provable = prove(goal)
    print("provable" if provable else "not provable")
    if term is not None:
        if args.term:
            print(f"term: {format_term(term)}")
        if args.normalize:
            print(f"normal form: {format_term(beta_normalize(term))}")
    return 0 if provable else 1


def cmd_corpus(args: argparse.Namespace) -> int:
    from . import corpus

    max_len = _resolve(args, "max_len")
    max_frag = _resolve(args, "max_frag")
    manifest = Manifest()
    try:
        raw = Path(args.input).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest.add("command", "corpus")
    manifest.add("input", args.input)
    manifest.digest("input", args.input)
    manifest.add("max_len", max_len)
    manifest.add("max_frag", max_frag)
    manifest.start_phase("split")
    body = corpus.strip_boilerplate(raw)
    sentences = corpus.split_sentences(body, max_len=max_len)
    if not sentences:
        print("no sentences found in input", file=sys.stderr)
        return 2
    manifest.start_phase("vocab")
    vocab = corpus.build_vocab(sentences)
    manifest.start_phase("fragments")
    training = corpus.enumerate_fragments(sentences, vocab, k_frag=max_frag, max_len=max_len)
    manifest.start_phase("write")
    corpus.write_sentences(out_dir / "sentences.txt", sentences)
    corpus.write_vocab(out_dir / "vocab.txt", vocab)
    corpus.write_fragments(out_dir / "fragments.txt", training, vocab)
    manifest.finish_phase()
    manifest.add("sentences", len(sentences))
    manifest.add("vocab_size", len(vocab))
    manifest.add("fragments", len(training.fragments))
    for name in ("sentences.txt", "vocab.txt", "fragments.txt"):
        manifest.digest(name, out_dir / name)
    manifest.finalize()
    manifest.write(out_dir / "corpus.manifest")
    print(
        f"corpus: {len(sentences)} sentences, |V|={len(vocab)}, "
        f"{len(training.fragments)} training fragments -> {out_dir}"
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    import numpy as np

    from . import corpus, model

    cfg = model.TrainConfig(
        d=_resolve(args, "d"),
        r=_resolve(args, "r"),
        lr=_resolve(args, "lr"),
        warmup_steps=_resolve(args, "warmup"),
        epochs=_resolve(args, "epochs"),
        batch_size=_resolve(args, "batch_size"),
        k_frag=_resolve(args, "max_frag"),
        max_len=_resolve(args, "max_len"),
        seed=_resolve(args, "seed"),
        weight_decay=_resolve(args, "weight_decay"),
        clip_norm=_resolve(args, "clip_norm"),
    )
    corpus_dir = Path(args.corpus)
    manifest = Manifest()
    manifest.add("command", "train")
    try:
        manifest.start_phase("load")
        sentences = corpus.read_sentences(corpus_dir / "sentences.txt")
        vocab = corpus.read_vocab(corpus_dir / "vocab.txt")
    except (OSError, corpus.CorpusError) as exc:
        print(f"cannot load corpus: {exc}", file=sys.stderr)
        return 2
    for sent in sentences:
        for word in sent:
            if word not in vocab:
                print(f"corpus/vocab mismatch: unknown word {word!r}", file=sys.stderr)
                return 2
    if cfg.r > cfg.d or cfg.r < 1:
        print(f"invalid shape: d={cfg.d}, r={cfg.r}", file=sys.stderr)
        return 2
    for key in ("d", "r", "lr", "warmup_steps", "epochs", "batch_size", "seed"):
        manifest.add(key, getattr(cfg, key))
    manifest.digest("sentences", corpus_dir / "sentences.txt")
    manifest.digest("vocab", corpus_dir / "vocab.txt")
    manifest.start_phase("fragments")
    training = corpus.enumerate_fragments(
        sentences, vocab, k_frag=cfg.k_frag, max_len=cfg.max_len
    )
    manifest.add("fragments", len(training.fragments))
    manifest.start_phase("train")
    params = model.init_params(len(vocab), cfg.d, cfg.r, cfg.seed, dtype=np.float32)
    loss_lines = []
    t0 = time.perf_counter()
    params, history = model.train(params, training.fragments, cfg, pad_id=vocab.pad_id)
    for epoch, loss in enumerate(history, 1):
        loss_lines.append(f"{epoch}\t{loss:.6f}\t{time.perf_counter() - t0:.3f}\n")
    manifest.start_phase("save")
    model.save_checkpoint(params, vocab, args.out)
    Path(f"{args.out}.loss").write_text("".join(loss_lines), encoding="utf-8")
    manifest.finish_phase()
    if history:
        manifest.add("final_loss", f"{history[-1]:.6f}")
    manifest.digest("checkpoint", args.out)
    manifest.finalize()
    manifest.write(f"{args.out}.manifest")
    final = f", final loss {history[-1]:.4f}" if history else ""
    print(f"trained {cfg.epochs} epochs on {len(training.fragments)} fragments{final}")
    return 0


def _print_query_block(result, generated: Optional[list[str]]) -> None:
    for i, cand in enumerate(result.ranked, 1):
        text = " ".join(cand.continuation)
        print(f"{i}. {text}  (mean {cand.mean_logprob:.4f}, total {cand.total_logprob:.4f})")
    for cand in result.exact_matches:
        print(f"exact: sentence {cand.sentence_id}")
    if generated is not None:
        print(f"[free] {' '.join(generated)}".rstrip())
    print()


def _answer_query(raw: str, args, params, vocab, db) -> int:
    from . import corpus, inference, retrieval

    if args.symbolic:
        items = db.parse_pattern(raw)
        results = retrieval.query_pattern(db, items) if items else []
        named = [it.name for it in (items or []) if isinstance(it, retrieval.Wildcard) and it.name]
        for bindings, sid, _ in results:
            text = " ".join(db.sentences[sid].tokens)
            if named:
                bound = ", ".join(f"{n}={bindings[n]}" for n in named)
                print(f"{bound}: {text}")
            else:
                print(text)
        print()
        return 0 if results else 1
    words = corpus.normalize_words(raw)
    if not words:
        print()
        return 1
    result = inference.retrieval_first(params, vocab, db, words, k=_resolve(args, "top_k"))
    generated = None
    if not result:
        prompt = [vocab.index[w] for w in words if w in vocab.index]
        decode = inference.DecodeConfig(
            mode="sample" if args.sample else "greedy",
            temperature=_resolve(args, "temperature"),
            max_new_tokens=_resolve(args, "max_new_tokens"),
            seed=_resolve(args, "seed"),
        )
        ids = inference.generate_free(params, vocab, prompt, decode) if prompt else []
        generated = vocab.decode(ids)
    _print_query_block(result, generated)
    return 0 if result else 1


def cmd_query(args: argparse.Namespace) -> int:
    from . import corpus, model, retrieval

    corpus_dir = Path(args.corpus)
    manifest = Manifest()
    manifest.add("command", "query")
    try:
        manifest.start_phase("load")
        sentences = corpus.read_sentences(corpus_dir / "sentences.txt")
        corpus_vocab = corpus.read_vocab(corpus_dir / "vocab.txt")
        params, vocab = (None, corpus_vocab)
        if not args.symbolic:
            params, vocab = model.load_checkpoint(args.model)
    except (OSError, corpus.CorpusError, model.ModelError) as exc:
        print(f"cannot load model/corpus: {exc}", file=sys.stderr)
        return 2
    if vocab.words != corpus_vocab.words:
        print("vocab mismatch between checkpoint and corpus", file=sys.stderr)
        return 2
    manifest.start_phase("build_db")
    db = retrieval.build_db(sentences, k_max=_resolve(args, "max_frag"))
    manifest.start_phase("queries")
    if args.repl:
        status = 0
        for line in sys.stdin:
            line = line.strip()
            if not line:
                continue
            status = max(status, _answer_query(line, args, params, vocab, db))
    elif args.query is not None:
        status = _answer_query(args.query, args, params, vocab, db)
    else:
        print("no query given (pass QUERY or --repl)", file=sys.stderr)
        return 2
    manifest.finalize()
    print(manifest.text(), file=sys.stderr, end="")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arrowlm",
        description="Implicational prover, fragment retrieval, and the Arrow LM",
    )
    parser.add_argument("--config", help="key=value file supplying any flag")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="decide an implicational formula")
    p.add_argument("formula")
    p.add_argument("--term", action="store_true", help="print a lambda witness")
    p.add_argument("--normalize", action="store_true", help="print its normal form")
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("corpus", help="build corpus artifacts from raw text")
    p.add_argument("action", choices=["build"])
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-len", type=int, dest="max_len")
    p.add_argument("--max-frag", type=int, dest="max_frag")
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("train", help="train a checkpoint on corpus artifacts")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--lr", type=float)
    p.add_argument("--warmup", type=int)
    p.add_argument("--weight-decay", type=float, dest="weight_decay")
    p.add_argument("--clip-norm", type=float, dest="clip_norm")
    p.add_argument("--max-len", type=int, dest="max_len")
    p.add_argument("--max-frag", type=int, dest="max_frag")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("query", help="retrieval-first completion or symbolic qa")
    p.add_argument("query", nargs="?")
    p.add_argument("--model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--repl", action="store_true")
    p.add_argument("--symbolic", action="store_true", help="pure subsequence qa, wildcards allowed")
    p.add_argument("--sample", action="store_true", help="sample instead of greedy fallback")
    p.add_argument("--top-k", type=int, dest="top_k")
    p.add_argument("--max-new-tokens", type=int, dest="max_new_tokens")
    p.add_argument("--temperature", type=float)
    p.add_argument("--max-frag", type=int, dest="max_frag")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_query)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._file_config = {}
    if args.config:
        try:
            args._file_config = _load_config_file(args.config)
        except (OSError, ValueError) as exc:
            print(f"bad config file: {exc}", file=sys.stderr)
            return 2
    if args.command == "query" and not args.symbolic and not args.model:
        print("query needs --model unless --symbolic", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except Exception as exc:  # the CLI boundary: a crash must not read as exit 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

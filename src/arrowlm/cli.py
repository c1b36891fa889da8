"""Command-line front end: prove, corpus build, train, query.

``README.md`` describes each command, its output and its exit codes, and
``tests/test_readme.py`` runs the session it shows.

A manifest lists each setting under its ``--config`` key, so its setting
lines, read as a config file, re-run the command.  A command's outputs are
all or none, but each moves into place on its own (``os.replace`` is
atomic per file, not across files); the stage lives for the whole command,
training included, so a killed run may leave one, and no command reads it.

Each command imports only what it runs, since a cold start pays for every
module loaded: ``prove`` loads no numpy, ``dataclasses`` or ``hashlib``,
``query --symbolic`` loads no numpy, and neither loads ``tempfile``.  So
:class:`~arrowlm.ModelError` comes from the package root, not from ``model``.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from . import DEFAULTS, __version__
from .formula import FormulaSyntaxError, parse_formula
from .prover import format_term, prove, prove_with_term

# The settings each command reads, in flag order.
_SETTINGS = {
    "corpus": ("max_len",),
    "train": ("max_frag", "d", "r", "epochs", "seed", "batch_size", "lr", "warmup", "weight_decay",
              "clip_norm"),
    "query": ("top_k", "max_new_tokens", "temperature", "seed"),
}

# The environment variables that set a BLAS library's thread count, and so the order in
# which its matrix products sum.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# TrainConfig's own name for a setting (bench/workloads.py builds it by that name).
_TRAIN_FIELDS = {"max_frag": "k_frag", "warmup": "warmup_steps"}

# The lowest value of each setting, and whether that value is itself allowed.
_LOWEST = {
    "max_len": (1, True),
    "max_frag": (2, True),
    "d": (1, True),
    "r": (1, True),
    "epochs": (0, True),
    "seed": (0, True),
    "batch_size": (1, True),
    "lr": (0.0, True),
    "warmup": (0, True),
    "weight_decay": (0.0, True),
    "clip_norm": (0.0, True),
    "top_k": (1, True),
    "max_new_tokens": (0, True),
    "temperature": (0.0, False),
}


class Manifest:
    """Ordered key=value run record: the command's settings, then digests and timings."""

    def __init__(self, args: argparse.Namespace):
        self.entries: list[tuple[str, str]] = [("version", __version__), ("command", args.command)]
        for key in _SETTINGS[args.command]:
            self.add(key, getattr(args, key))
        self._phase_start: Optional[tuple[str, float]] = None

    def add(self, key: str, value) -> None:
        self.entries.append((key, str(value)))

    def numerics(self) -> None:
        """Record what the floating-point results depend on besides the settings and inputs."""
        import numpy

        self.add("numpy", numpy.__version__)
        for var in _BLAS_THREADS:
            self.add(var, os.environ.get(var, "unset"))

    def digest(self, key: str, path) -> None:
        import hashlib

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

    def finalize(self) -> str:
        """Close the open phase and return the ``key=value`` text, which ends in peak RSS."""
        import resource

        self.finish_phase()
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.add("peak_rss_bytes", rss if sys.platform == "darwin" else rss * 1024)  # Linux: KiB
        return "".join(f"{k}={v}\n" for k, v in self.entries)


class _Refusal(Exception):
    """A usage or I/O error: :func:`main` prints its message as one line and exits 2."""


@contextlib.contextmanager
def _refuse(prefix: str, *errors: type[Exception]):
    """Re-raise any of ``errors`` as a :class:`_Refusal` reading ``prefix: error``."""
    try:
        yield
    except errors as exc:
        raise _Refusal(f"{prefix}: {exc}") from exc


@contextlib.contextmanager
def _outputs(out_dir: Path, names: Sequence[str]):
    """Refuse a directory in the way, yield a stage, then publish ``names``: all or none.

    The body writes each of ``names`` into the stage; each then moves into
    ``out_dir`` with ``os.replace``.  An exception removes the stage and any
    directory made for ``out_dir``.
    """
    import shutil
    import tempfile

    in_the_way = [out_dir / name for name in names if (out_dir / name).is_dir()]
    if in_the_way:
        raise IsADirectoryError(f"{in_the_way[0]} is a directory")
    created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]  # deepest first
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix=".arrowlm-", dir=out_dir) as stage:
            yield Path(stage)
            for name in names:
                (Path(stage) / name).replace(out_dir / name)
    except BaseException:
        if created:
            shutil.rmtree(created[-1], ignore_errors=True)
        raise


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


def _resolve(args: argparse.Namespace, file_config: dict[str, str]) -> None:
    """Replace each setting of the command by its checked value.

    The command line wins over the config file, which wins over
    :data:`DEFAULTS`.  Raises ValueError for a config key that names no
    setting, or a value that does not convert or lies outside its range.
    """
    unknown = sorted(file_config.keys() - DEFAULTS.keys())
    if unknown:
        raise ValueError(f"config key {unknown[0]!r} is not a setting")
    for key in _SETTINGS.get(args.command, ()):
        default = DEFAULTS[key]
        value = getattr(args, key)
        if value is None and key in file_config:
            try:
                value = type(default)(file_config[key])
            except ValueError:
                raise ValueError(
                    f"{key}={file_config[key]!r} is not {type(default).__name__}"
                ) from None
        if value is None:
            value = default
        low, inclusive = _LOWEST[key]
        if not abs(value) <= sys.float_info.max:  # nan, inf, or an int too large for a float
            raise ValueError(f"{key} must be finite and fit a float, got {value}")
        if not (value >= low if inclusive else value > low):
            raise ValueError(f"{key} must be {'>=' if inclusive else '>'} {low}, got {value}")
        setattr(args, key, value)


def cmd_prove(args: argparse.Namespace) -> int:
    with _refuse("syntax error", FormulaSyntaxError):
        goal = parse_formula(args.formula)
    if args.term:
        term = prove_with_term(goal)
        provable = term is not None
    else:
        provable = prove(goal)
    print("provable" if provable else "not provable")
    if args.term and provable:
        print(f"term: {format_term(term)}")
    return 0 if provable else 1


def cmd_corpus(args: argparse.Namespace) -> int:
    from . import corpus

    manifest = Manifest(args)
    with _refuse("cannot read input", OSError, UnicodeDecodeError):
        raw = Path(args.input).read_text(encoding="utf-8")
    manifest.add("input", args.input)
    manifest.digest("input", args.input)
    out_dir = Path(args.out)
    names = ("sentences.txt", "corpus.manifest")
    with _refuse("cannot write output", OSError), _outputs(out_dir, names) as stage:
        manifest.start_phase("split")
        body = corpus.strip_boilerplate(raw)  # a body between markers lacks the start line
        manifest.add("boilerplate_markers", "absent" if body == raw else "present")
        sentences = corpus.split_sentences(body, max_len=args.max_len)
        if not sentences:
            raise _Refusal("no sentences found in input")
        manifest.start_phase("write")
        corpus.write_sentences(stage / "sentences.txt", sentences)
        manifest.finish_phase()
        manifest.add("sentences", len(sentences))
        manifest.digest("sentences", stage / "sentences.txt")
        (stage / "corpus.manifest").write_text(manifest.finalize(), encoding="utf-8")
    print(f"corpus: {len(sentences)} sentences -> {out_dir}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from . import corpus, model

    cfg = model.TrainConfig(
        **{_TRAIN_FIELDS.get(key, key): getattr(args, key) for key in _SETTINGS["train"]}
    )
    if cfg.r > cfg.d:
        raise _Refusal(f"invalid shape: d={cfg.d}, r={cfg.r}")
    out = Path(args.out)
    if os.path.basename(args.out) != out.name:  # "m/" and "m/." would publish a file "m"
        raise _Refusal(f"cannot write checkpoint: {args.out} does not end in a file name")
    if not out.parent.is_dir():
        raise _Refusal(f"cannot write checkpoint: {args.out} lies in no directory")
    corpus_dir = Path(args.corpus)
    manifest = Manifest(args)
    manifest.numerics()
    names = [f"{out.name}{suffix}" for suffix in ("", ".loss", ".manifest")]
    with _refuse("cannot write checkpoint", OSError), _outputs(out.parent, names) as stage:
        manifest.start_phase("load")
        with _refuse("cannot load corpus", OSError, UnicodeDecodeError, corpus.CorpusError):
            sentences = corpus.read_sentences(corpus_dir / "sentences.txt")
            manifest.digest("sentences", corpus_dir / "sentences.txt")
            vocab = corpus.build_vocab(sentences)  # the words in first-seen order
        manifest.start_phase("fragments")
        fragments = corpus.enumerate_fragments(sentences, vocab, k_frag=cfg.k_frag).fragments
        manifest.add("vocab_size", len(vocab))
        manifest.add("fragments", len(fragments))
        manifest.start_phase("train")
        params = model.init_params(len(vocab), cfg.d, cfg.r, cfg.seed)  # float32, as train checks
        with _refuse("training diverged", model.NonFiniteTraining):
            params, history = model.train(params, fragments, cfg, pad_id=vocab.pad_id)
        manifest.start_phase("save")
        model.save_checkpoint(params, vocab, stage / out.name)  # one file, vocabulary included
        loss_lines = "".join(f"{epoch}\t{loss:.6f}\n" for epoch, loss in enumerate(history, 1))
        (stage / f"{out.name}.loss").write_text(loss_lines, encoding="utf-8")
        manifest.finish_phase()
        if history:
            manifest.add("final_loss", f"{history[-1]:.6f}")
        manifest.digest("checkpoint", stage / out.name)
        (stage / f"{out.name}.manifest").write_text(manifest.finalize(), encoding="utf-8")
    final = f", final loss {history[-1]:.4f}" if history else ""
    print(f"trained {cfg.epochs} epochs on {len(fragments)} fragments{final}")
    return 0


def _answer_query(raw: str, args, params, vocab, db) -> int:
    from . import corpus, retrieval

    if args.symbolic:
        items = db.parse_pattern(raw)
        results = retrieval.query_pattern(db, items) if items else []
        for bindings, _, sentence in results:  # each name once: ``?x ?x`` binds one word
            bound = ", ".join(f"{name}={word}" for name, word in bindings.items())
            print(f"{bound}: {' '.join(sentence)}" if bound else " ".join(sentence))
        print()
        return 0 if results else 1
    from . import inference

    words = corpus.normalize_words(raw)
    if not words:
        print()
        return 1
    result = inference.retrieval_first(params, vocab, db, words, k=args.top_k)
    for i, cand in enumerate(result.ranked, 1):
        text = " ".join(cand.continuation)
        print(f"{i}. {text}  (mean {cand.mean_logprob:.4f}, total {cand.total_logprob:.4f})")
    for cand in result.exact_matches:
        print(f"exact: sentence {cand.sentence_id}")
    if not result:
        prompt = [vocab.index[w] for w in words if w in vocab.index]
        decode = inference.DecodeConfig(
            mode="sample" if args.sample else "greedy",
            temperature=args.temperature,
            max_new_tokens=args.max_new_tokens,
            seed=args.seed,
        )
        ids = inference.generate_free(params, vocab, prompt, decode) if prompt else []
        print(" ".join(["[free]", *vocab.decode(ids)]))
    print()
    return 0 if result else 1


def cmd_query(args: argparse.Namespace) -> int:
    from . import ModelError, corpus, retrieval

    corpus_dir = Path(args.corpus)
    manifest = Manifest(args)
    manifest.add("sample", args.sample)
    manifest.add("symbolic", args.symbolic)
    manifest.start_phase("load")
    with _refuse("cannot load model/corpus", OSError, UnicodeDecodeError, ModelError,
                 corpus.CorpusError):
        sentences = corpus.read_sentences(corpus_dir / "sentences.txt")
        manifest.digest("sentences", corpus_dir / "sentences.txt")
        params = vocab = None
        if not args.symbolic:  # a symbolic query runs no model, so loads none (nor numpy)
            from . import model

            params, vocab = model.load_checkpoint(args.model)
            manifest.digest("checkpoint", args.model)
            manifest.numerics()
    manifest.start_phase("build_db")
    db = retrieval.build_db(sentences)
    # The checkpoint holds the model's one vocabulary; a stored word outside it cannot be scored.
    if not args.symbolic and (unknown := db.positions.keys() - vocab.index.keys()):
        raise _Refusal(f"stored word {min(unknown)!r} is not in the checkpoint's vocabulary")
    manifest.start_phase("queries")
    with _refuse("cannot use model", ModelError):  # e.g. scores that overflow to inf or NaN
        if args.repl:
            status = 0
            with _refuse("cannot read query", UnicodeDecodeError):
                for line in sys.stdin:
                    line = line.strip()
                    if line:
                        status = max(status, _answer_query(line, args, params, vocab, db))
        else:
            status = _answer_query(args.query, args, params, vocab, db)
    print(manifest.finalize(), file=sys.stderr, end="")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arrowlm",
        description="Implicational prover, fragment retrieval, and the Arrow LM",
    )
    parser.add_argument("--config", help="key=value file of settings named as flags (max_frag=3)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="decide an implicational formula")
    p.add_argument("formula")
    p.add_argument("--term", action="store_true", help="print a lambda witness (beta-normal)")
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("corpus", help="build corpus artifacts from raw text")
    p.add_argument("action", choices=["build"])
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("train", help="train a checkpoint on corpus artifacts")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("query", help="retrieval-first completion or symbolic qa")
    p.add_argument("query", nargs="?")
    p.add_argument("--model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--repl", action="store_true")
    p.add_argument("--symbolic", action="store_true", help="pure subsequence qa, wildcards allowed")
    p.add_argument("--sample", action="store_true", help="sample instead of greedy fallback")
    p.set_defaults(func=cmd_query)

    for command, keys in _SETTINGS.items():
        for key in keys:
            flag = "--" + key.replace("_", "-")
            sub.choices[command].add_argument(flag, type=type(DEFAULTS[key]), dest=key)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "query" and (args.model is not None) == args.symbolic:
            raise _Refusal("query needs exactly one of --model and --symbolic")
        if args.command == "query" and (args.query is not None) == args.repl:
            raise _Refusal("query needs exactly one of QUERY and --repl")
        with _refuse("bad config file", OSError, ValueError):
            file_config = _load_config_file(args.config) if args.config else {}
        with _refuse("bad setting", ValueError):
            _resolve(args, file_config)
        return args.func(args)
    except _Refusal as exc:
        print(exc, file=sys.stderr)
        return 2
    except Exception as exc:  # the CLI boundary: a crash must not read as exit 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
